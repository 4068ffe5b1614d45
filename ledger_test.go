package tagger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// sampleLedger checks the deadlock-episode ledger against a from-scratch
// wait-for scan every microsecond of simulated time up to until, using
// only the public Network.At hook. It returns a check to call after the
// run: it fails the test on any instant where the two disagreed, and on
// a run that was expected to deadlock but never sampled an open episode.
func sampleLedger(t *testing.T, n *sim.Network, until time.Duration, wantOpen bool) func() {
	t.Helper()
	track := n.TrackDeadlocks()
	var samples, open, mismatches int
	first := time.Duration(-1)
	var tick func()
	tick = func() {
		samples++
		scan := n.Deadlocked()
		if scan {
			open++
		}
		if track.Open() != scan {
			mismatches++
			if first < 0 {
				first = n.Now()
			}
		}
		if next := n.Now() + time.Microsecond; next <= until {
			n.At(next, tick)
		}
	}
	n.At(0, tick)
	return func() {
		t.Helper()
		if mismatches > 0 {
			t.Errorf("ledger disagreed with the wait-for scan at %d of %d samples (first at %v)",
				mismatches, samples, first)
		}
		if wantOpen && open == 0 {
			t.Error("no sample saw a deadlock; the check ran on a deadlock-free run")
		}
	}
}

// TestEpisodeLedgerMatchesScan is the ledger-vs-scan differential: the
// ledger updates only at pause effects (onset) and at resume effects and
// interventions (clear), on the assumption that no other transition
// closes or breaks a wait-for cycle. Sampling both views every 1µs over
// the figure scenarios, the four-arm detect matrix and a mid-deadlock
// switch reboot pins that assumption. Part of `make detect-smoke`.
func TestEpisodeLedgerMatchesScan(t *testing.T) {
	type run struct {
		name     string
		build    func() (*workload.Scenario, error)
		deadlock bool // the run must sample at least one open episode
	}
	var runs []run
	for _, name := range []string{"fig10", "fig11", "fig12"} {
		for _, withTagger := range []bool{false, true} {
			runs = append(runs, run{fmt.Sprintf("%s/tagger=%v", name, withTagger), func() (*workload.Scenario, error) {
				return figureScenario(name, withTagger)
			}, !withTagger})
		}
	}
	for _, arm := range DetectArms() {
		for seed := int64(1); seed <= 4; seed++ {
			runs = append(runs, run{fmt.Sprintf("detect/%s/seed=%d", arm, seed), func() (*workload.Scenario, error) {
				s, _, _, err := detectScenario(seed, arm)
				return s, err
			}, arm != ArmTagger})
		}
	}
	runs = append(runs, run{"fig10/reboot-S1", func() (*workload.Scenario, error) {
		s := workload.Figure10(workload.Options{})
		s.Net.At(3*time.Millisecond, func() { s.Net.RebootSwitch(s.Clos.Graph.MustLookup("S1")) })
		return s, nil
	}, true})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			s, err := r.build()
			if err != nil {
				t.Fatal(err)
			}
			check := sampleLedger(t, s.Net, s.Duration, r.deadlock)
			s.Run()
			check()
		})
	}
}

// TestRebootClearsEpisode: a switch reboot that empties a queue of the
// live cycle ends the episode at the reboot instant, not when its
// RESUME lands a propagation delay later.
func TestRebootClearsEpisode(t *testing.T) {
	const at = 3 * time.Millisecond
	for _, sw := range []string{"S1", "L1", "L3", "S2"} {
		s := workload.Figure10(workload.Options{})
		track := s.Net.TrackDeadlocks()
		s.Net.Run(at)
		if !track.Open() || !s.Net.Deadlocked() {
			t.Fatalf("reboot %s: fig10 without Tagger not deadlocked at %v", sw, at)
		}
		s.Net.RebootSwitch(s.Clos.Graph.MustLookup(sw))
		if s.Net.Deadlocked() {
			t.Fatalf("reboot %s: cycle survived the reboot", sw)
		}
		if track.Open() {
			t.Errorf("reboot %s: episode still open after the reboot broke the cycle", sw)
		}
		if want := at - track.FirstOnsetAt; track.Recoveries != 1 || track.MaxTTR != want {
			t.Errorf("reboot %s: %d recoveries, TTR %v; want 1 recovery at the reboot, TTR %v",
				sw, track.Recoveries, track.MaxTTR, want)
		}
	}
}

// TestFig11TraceRecordsOnset: fig11 without Tagger ends deadlocked, so
// its trace carries the one onset, stamped at the pause effect that
// closed the T1-L1 loop.
func TestFig11TraceRecordsOnset(t *testing.T) {
	var buf bytes.Buffer
	tr, finish, err := NewTracer(&buf, TraceJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure("fig11", false, Observers{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if _, err := finish(); err != nil {
		t.Fatal(err)
	}
	var onsets []sim.TraceEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev sim.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "deadlock" {
			onsets = append(onsets, ev)
		}
	}
	if len(onsets) != 1 {
		t.Fatalf("fig11 without Tagger traced %d deadlock records, want 1", len(onsets))
	}
	if ev := onsets[0]; ev.T != 5057916 || len(ev.Cycle) != 2 {
		t.Errorf("onset at t=%d with a %d-hop cycle, want t=5057916 and the 2-hop T1-L1 loop", ev.T, len(ev.Cycle))
	}
}

// TestOnsetObserversAgree: the trace's deadlock records, the
// sim_deadlock_onsets_total counter and DeadlockTrack.Onsets are three
// views of one ledger, so they count the same episodes — here under the
// scan arm, whose recovery monitor breaks and re-forms the cycle dozens
// of times.
func TestOnsetObserversAgree(t *testing.T) {
	s, _, _, err := detectScenario(1, ArmScan)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ct := &sim.CountingTracer{}
	s.Net.SetTelemetry(reg)
	s.Net.SetTracer(ct)
	track := s.Net.TrackDeadlocks()
	s.Run()
	var counter int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "sim_deadlock_onsets_total" {
			counter = c.Value
		}
	}
	traced := ct.Counts["deadlock"]
	if track.Onsets == 0 || traced != int64(track.Onsets) || counter != int64(track.Onsets) {
		t.Errorf("onsets disagree: %d trace records, sim_deadlock_onsets_total %d, DeadlockTrack.Onsets %d",
			traced, counter, track.Onsets)
	}
}
