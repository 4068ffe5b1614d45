package tagger

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The engine-equivalence golden: per-scenario event traces and counters
// captured from the pre-rewrite container/heap event loop. The rebuilt
// typed-heap engine must reproduce them byte for byte — same (at, seq)
// tie-break, same dispatch order, same PFC and drop counters — proving
// the allocation work changed nothing observable. Regenerate only for an
// intentional semantic change: go test -run TestEngineGolden -update-engine-golden
var updateEngineGolden = flag.Bool("update-engine-golden", false,
	"rewrite testdata/engine_golden.json from the current engine")

const engineGoldenPath = "testdata/engine_golden.json"

// scenarioGolden pins one scenario run. TraceHash is FNV-64a over the
// JSONL event trace (pauses, resumes, drops, demotions, deadlock onsets,
// in dispatch order with sim timestamps), so any reordering or
// miscounting shows up as a hash mismatch.
type scenarioGolden struct {
	TraceHash    string        `json:"trace_hash"`
	TraceEvents  int64         `json:"trace_events"`
	PauseFrames  int64         `json:"pause_frames"`
	ResumeFrames int64         `json:"resume_frames"`
	Drops        sim.DropStats `json:"drops"`
}

// chaosGolden pins one seeded chaos soak (watchdog verdict + counters);
// the schedule exercises reboots, route churn and the periodic-timer
// event path.
type chaosGolden struct {
	Samples         int           `json:"samples"`
	DeadlockSamples int           `json:"deadlock_samples"`
	FirstDeadlockNs int64         `json:"first_deadlock_ns"`
	PauseFrames     int64         `json:"pause_frames"`
	ResumeFrames    int64         `json:"resume_frames"`
	Drops           sim.DropStats `json:"drops"`
}

type engineGolden struct {
	Scenarios map[string]scenarioGolden `json:"scenarios"`
	Chaos     map[string]chaosGolden    `json:"chaos"`
}

// hashWriter hashes the byte stream fed to it and counts lines.
type hashWriter struct {
	h     interface{ Write([]byte) (int, error) }
	sum   func() uint64
	lines int64
}

func newHashWriter() *hashWriter {
	h := fnv.New64a()
	return &hashWriter{h: h, sum: h.Sum64}
}

func (w *hashWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			w.lines++
		}
	}
	return w.h.Write(p)
}

// goldenScenarios builds every pinned figure scenario. DCQCN rides along
// on fig10 so the congestion-control timer path is pinned too.
func goldenScenarios() map[string]func() *workload.Scenario {
	mk := func(build func(workload.Options) *workload.Scenario, withTagger, dcqcn bool) func() *workload.Scenario {
		return func() *workload.Scenario {
			opt := workload.Options{}
			if withTagger {
				opt.Bounces = 1
			}
			s := build(opt)
			if dcqcn {
				s.Net.EnableDCQCN(sim.DefaultDCQCN())
			}
			return s
		}
	}
	return map[string]func() *workload.Scenario{
		"fig10-base":   mk(workload.Figure10, false, false),
		"fig10-tagger": mk(workload.Figure10, true, false),
		"fig10-dcqcn":  mk(workload.Figure10, true, true),
		"fig11-base":   mk(workload.Figure11, false, false),
		"fig11-tagger": mk(workload.Figure11, true, false),
		"fig12-base":   mk(workload.Figure12, false, false),
		"fig12-tagger": mk(workload.Figure12, true, false),
		"recovery-fig10": func() *workload.Scenario {
			s := workload.Figure10(workload.Options{})
			s.Net.EnableRecovery(500 * time.Microsecond)
			return s
		},
	}
}

func runGoldenScenario(build func() *workload.Scenario) scenarioGolden {
	s := build()
	w := newHashWriter()
	s.Net.SetTracer(&trace.JSONLWriter{W: w})
	s.Run()
	return scenarioGolden{
		TraceHash:    fmt.Sprintf("%016x", w.sum()),
		TraceEvents:  w.lines,
		PauseFrames:  s.Net.PauseFrames,
		ResumeFrames: s.Net.ResumeFrames,
		Drops:        s.Net.Drops(),
	}
}

func runGoldenChaos(seed int64, withTagger bool) (chaosGolden, error) {
	r, err := ChaosSoak(seed, withTagger, Observers{})
	if err != nil {
		return chaosGolden{}, err
	}
	return chaosGolden{
		Samples:         r.Watchdog.Samples,
		DeadlockSamples: r.Watchdog.DeadlockSamples,
		FirstDeadlockNs: int64(r.Watchdog.FirstDeadlockAt),
		Drops:           r.Drops,
	}, nil
}

func computeEngineGolden(t *testing.T) engineGolden {
	t.Helper()
	g := engineGolden{
		Scenarios: map[string]scenarioGolden{},
		Chaos:     map[string]chaosGolden{},
	}
	for name, build := range goldenScenarios() {
		g.Scenarios[name] = runGoldenScenario(build)
	}
	for _, c := range []struct {
		name       string
		seed       int64
		withTagger bool
	}{
		{"seed1-base", 1, false},
		{"seed1-tagger", 1, true},
	} {
		cg, err := runGoldenChaos(c.seed, c.withTagger)
		if err != nil {
			t.Fatalf("chaos golden %s: %v", c.name, err)
		}
		g.Chaos[c.name] = cg
	}
	return g
}

// TestEngineGolden replays every pinned scenario on the current engine
// and compares against the pre-rewrite capture.
func TestEngineGolden(t *testing.T) {
	got := computeEngineGolden(t)
	if *updateEngineGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("engine golden rewritten: %s", engineGoldenPath)
		return
	}
	data, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update-engine-golden to create): %v", err)
	}
	var want engineGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want.Scenarios {
		g, ok := got.Scenarios[name]
		if !ok {
			t.Errorf("scenario %s: missing from current battery", name)
			continue
		}
		if g != w {
			t.Errorf("scenario %s diverged from the pinned engine semantics:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name, w := range want.Chaos {
		g, ok := got.Chaos[name]
		if !ok {
			t.Errorf("chaos %s: missing from current battery", name)
			continue
		}
		if g != w {
			t.Errorf("chaos %s diverged from the pinned engine semantics:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
