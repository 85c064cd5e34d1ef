package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPhaseTableGolden pins sweep -trace's stdout — the bandwidth table and
// every cell's phase breakdown — to a fixture. The table reads the
// recorder's per-rank counters, which are exact under any event limit, so
// metrics-only, unbounded and ring recording print the same bytes.
func TestPhaseTableGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "phases.golden"))
	if err != nil {
		t.Fatal(err)
	}
	base := []string{"-m", "256", "-n", "2048", "-p", "4,8", "-r", "16",
		"-strategies", "locking,coloring,ordering,twophase", "-trace", "-workers", "2"}
	dir := t.TempDir()
	for _, extra := range [][]string{
		nil,
		{"-metrics"},
		{"-trace-out", filepath.Join(dir, "t.jsonl")},
		{"-trace-out", filepath.Join(dir, "r.jsonl"), "-trace-limit", "16"},
	} {
		var stdout, stderr strings.Builder
		if code := run(append(append([]string(nil), base...), extra...), &stdout, &stderr); code != 0 {
			t.Fatalf("sweep %v exited %d: %s", extra, code, stderr.String())
		}
		if stdout.String() != string(want) {
			t.Errorf("sweep %v stdout differs from testdata/phases.golden:\n%s", extra, stdout.String())
		}
	}
}

// TestParseFlags tables the sweep command line, covering the malformed
// inputs for every list-valued flag.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		want string // diagnostic substring for the failing cases
	}{
		{"defaults", nil, true, ""},
		{"full", []string{"-platform", "IBM SP", "-m", "512", "-n", "4096", "-p", "2,4",
			"-r", "8", "-pattern", "row", "-strategies", "coloring,ordering",
			"-store", "-trace", "-workers", "2", "-json", "a.json",
			"-servers", "3"}, true, ""},
		{"bad shape", []string{"-m", "0"}, false, "must be positive"},
		{"bad overlap", []string{"-r", "-1"}, false, "non-negative"},
		{"empty procs", []string{"-p", ""}, false, "empty process list"},
		{"bad procs entry", []string{"-p", "4,x"}, false, "bad process count"},
		{"zero procs", []string{"-p", "0"}, false, "must be positive"},
		{"bad pattern", []string{"-pattern", "diagonal"}, false, "unknown pattern"},
		{"empty pattern", []string{"-pattern", ""}, false, "empty pattern"},
		{"unknown strategy", []string{"-strategies", "osmosis"}, false, "registered:"},
		{"empty strategy entry", []string{"-strategies", "locking,,ordering"}, false, "empty entry"},
		{"negative servers", []string{"-servers", "-9"}, false, "non-negative"},
		{"trace with metrics", []string{"-trace", "-metrics"}, true, ""},
		{"trace limit with trace-out", []string{"-trace-out", "t.jsonl", "-trace-limit", "16"}, true, ""},
		{"trace limit alone", []string{"-trace-limit", "16"}, false, "needs -trace-out"},
		{"trace limit with metrics", []string{"-metrics", "-trace-limit", "16"}, false, "needs -trace-out"},
		{"unknown flag", []string{"-nosuch"}, false, "not defined"},
		// No flag selects the engine, lock shards or the shared store.
		{"negative lockshards", []string{"-lockshards", "-1"}, false, "not defined"},
		{"no engine flag", []string{"-engine", "goroutine"}, false, "not defined"},
		{"no sharedstore flag", []string{"-sharedstore"}, false, "not defined"},
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

// TestParseFlagsBinds checks defaults and parsed values reach the config.
func TestParseFlagsBinds(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.platform != "Origin2000" || cfg.shape.M != 1024 || cfg.shape.N != 8192 ||
		cfg.shape.Overlap != 16 || cfg.pattern != "column-wise" {
		t.Errorf("defaults: %+v shape=%+v", cfg, cfg.shape)
	}
	if !reflect.DeepEqual(cfg.procs, []int{4, 8, 16}) {
		t.Errorf("default procs = %v", cfg.procs)
	}
	if !reflect.DeepEqual(cfg.strategies, []string{"locking", "coloring", "ordering"}) {
		t.Errorf("default strategies = %v", cfg.strategies)
	}
	cfg, err = parseFlags([]string{"-pattern", "block-block", "-p", " 2 , 4 "}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.pattern != "block-block" || !reflect.DeepEqual(cfg.procs, []int{2, 4}) {
		t.Errorf("parsed: pattern=%q procs=%v", cfg.pattern, cfg.procs)
	}
}
