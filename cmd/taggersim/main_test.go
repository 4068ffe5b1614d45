package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites testdata/<exp>.golden from the current binary. Run it
// (via `make taggersim-golden UPDATE=1`) only after an intentional
// change to an experiment's report, and review the diff.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenStdout pins the report of every fast experiment byte for
// byte: the experiment table, the flag handling and the facade behind
// it must print exactly what the goldens hold.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fig10", []string{"-exp", "fig10"}},
		{"fig11", []string{"-exp", "fig11"}},
		{"table1", []string{"-exp", "table1"}},
		{"multiclass", []string{"-exp", "multiclass"}},
		{"budget", []string{"-exp", "budget"}},
		{"compression", []string{"-exp", "compression"}},
		{"recovery", []string{"-exp", "recovery"}},
		{"churn", []string{"-exp", "churn", "-runs", "1"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("taggersim %s: exit %d\n%s", strings.Join(tc.args, " "), code, stderr.String())
			}
			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("taggersim %s: stdout differs from %s\ngot:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), path, stdout.String(), want)
			}
		})
	}
}

// TestUsageErrors: input the selected experiment cannot honour exits 2
// before anything runs or any file is written, and the message names
// the experiments that do take the flag.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "chaos", "-seeds", "0"}, "needs at least 1 seed"},
		{[]string{"-exp", "churn", "-seeds", "-2"}, "needs at least 1 seed"},
		{[]string{"-exp", "detect", "-seeds", "0"}, "needs at least 1 seed"},
		{[]string{"-exp", "overhead", "-trace", trace}, "experiments that take it: fig10, fig11, fig12, chaos, churn"},
		{[]string{"-exp", "reconverge", "-trace", trace}, "experiments that take it: fig10, fig11, fig12, chaos, churn"},
		{[]string{"-exp", "detect", "-trace", trace}, "experiments that take it: fig10, fig11, fig12, chaos, churn"},
		{[]string{"-exp", "chaos", "-flightrec"}, "experiments that take it: fig10, fig11, fig12, detect"},
		{[]string{"-exp", "fig10", "-flightrec", "-trace", trace}, "mutually exclusive"},
		{[]string{"-exp", "nosuch"}, `unknown experiment "nosuch"; valid experiments: fig10, fig11, fig12, table1,`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("taggersim %s: exit %d, want 2", strings.Join(tc.args, " "), code)
		}
		if stdout.Len() != 0 {
			t.Errorf("taggersim %s: printed %q before refusing", strings.Join(tc.args, " "), stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("taggersim %s: stderr %q lacks %q", strings.Join(tc.args, " "), stderr.String(), tc.want)
		}
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("a refused run created its trace file (stat: %v)", err)
	}
}
