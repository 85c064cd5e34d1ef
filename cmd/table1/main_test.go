package main

import (
	"strings"
	"testing"
)

// TestParseFlags tables the table1 command line: the command takes only
// boolean flags, so the malformed cases are unknown flags and non-boolean
// values.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		want string
	}{
		{"empty", nil, true, ""},
		{"params", []string{"-params"}, true, ""},
		{"json", []string{"-json"}, true, ""},
		{"both", []string{"-params", "-json"}, true, ""},
		{"unknown flag", []string{"-nosuch"}, false, "not defined"},
		{"no engine flag", []string{"-engine", "goroutine"}, false, "not defined"},
		{"non-boolean value", []string{"-json=x"}, false, "invalid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			cfg, err := parseFlags(tc.args, &buf)
			if tc.ok {
				if err != nil {
					t.Fatalf("parseFlags(%v) = %v; stderr %q", tc.args, err, buf.String())
				}
				wantParams := false
				wantJSON := false
				for _, a := range tc.args {
					if a == "-params" {
						wantParams = true
					}
					if a == "-json" {
						wantJSON = true
					}
				}
				if cfg.params != wantParams || cfg.json != wantJSON {
					t.Errorf("config = %+v", cfg)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFlags(%v): want error", tc.args)
			}
			if !strings.Contains(buf.String(), tc.want) {
				t.Errorf("diagnostic %q missing %q", buf.String(), tc.want)
			}
		})
	}
}
