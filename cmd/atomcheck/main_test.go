package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlags tables the atomcheck command line: shared -m/-n/-r
// geometry validation plus the command's own -p.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		want string
	}{
		{"defaults", nil, true, ""},
		{"full", []string{"-m", "128", "-n", "1024", "-p", "4", "-r", "8"}, true, ""},
		{"zero rows", []string{"-m", "0"}, false, "must be positive"},
		{"negative columns", []string{"-n", "-1"}, false, "must be positive"},
		{"negative overlap", []string{"-r", "-2"}, false, "non-negative"},
		{"zero procs", []string{"-p", "0"}, false, "-p must be positive"},
		{"non-numeric procs", []string{"-p", "x"}, false, "invalid value"},
		{"unknown flag", []string{"-nosuch"}, false, "not defined"},
		{"no engine flag", []string{"-engine", "goroutine"}, false, "not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			cfg, err := parseFlags(tc.args, &buf)
			if tc.ok {
				if err != nil {
					t.Fatalf("parseFlags(%v) = %v; stderr %q", tc.args, err, buf.String())
				}
				if cfg == nil {
					t.Fatal("no config")
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

// TestParseFlagsBinds checks defaults reach the config.
func TestParseFlagsBinds(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.shape.M != 256 || cfg.shape.N != 2048 || cfg.shape.Overlap != 16 || cfg.procs != 8 {
		t.Errorf("defaults: shape=%+v procs=%d", cfg.shape, cfg.procs)
	}
}
