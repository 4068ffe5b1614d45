package tagger

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TestDetectMatrixSmoke is the CI gate (`make detect-smoke`): a small
// four-arm matrix whose invariants are the experiment's whole point —
// the Tagger arm prevents (zero deadlocks, and its ride-along detector
// with mitigation off never fires: the false-positive oracle), the
// detect arm recovers every deadlock it sees within a bounded
// time-to-recover, the scan arm also recovers (slower cadence), and
// the unprotected control deadlocks on every seed and never recovers.
func TestDetectMatrixSmoke(t *testing.T) {
	seeds := sweep.Seeds(1, 6)
	matrix, err := DetectMatrix(seeds, 0, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	sums := SummarizeDetectMatrix(matrix)
	if len(sums) != 4 {
		t.Fatalf("got %d arm summaries, want 4", len(sums))
	}
	for _, s := range sums {
		if s.Seeds != len(seeds) {
			t.Errorf("%s: %d seeds, want %d", s.Arm, s.Seeds, len(seeds))
		}
		if s.LosslessDrops != 0 {
			t.Errorf("%s: %d lossless-invariant violations", s.Arm, s.LosslessDrops)
		}
		switch s.Arm {
		case ArmTagger:
			if s.DeadlockSeeds != 0 {
				t.Errorf("tagger arm deadlocked on %d seeds", s.DeadlockSeeds)
			}
			if s.Detections != 0 || s.FalsePositives != 0 {
				t.Errorf("detector fired on the protected topology: %d detections, %d FPs",
					s.Detections, s.FalsePositives)
			}
			if s.SacrificedPackets != 0 {
				t.Errorf("tagger arm sacrificed %d packets with nothing to mitigate", s.SacrificedPackets)
			}
		case ArmDetect:
			if s.DeadlockSeeds != len(seeds) {
				t.Errorf("detect arm saw deadlock on %d/%d seeds; scenario drifted", s.DeadlockSeeds, len(seeds))
			}
			if s.UnrecoveredSeeds != 0 {
				t.Errorf("detect arm never cleared a deadlock on %d seeds", s.UnrecoveredSeeds)
			}
			if s.Detections == 0 {
				t.Error("detect arm recovered without detections")
			}
			if s.MeanTTD <= 0 || s.MeanTTD > 2*time.Millisecond {
				t.Errorf("mean time-to-detect = %v, want (0, 2ms]", s.MeanTTD)
			}
			if s.MeanTTR <= 0 || s.MeanTTR > 5*time.Millisecond {
				t.Errorf("mean time-to-recover = %v, want (0, 5ms]", s.MeanTTR)
			}
		case ArmScan:
			if s.UnrecoveredSeeds != 0 {
				t.Errorf("scan arm never cleared a deadlock on %d seeds", s.UnrecoveredSeeds)
			}
			if s.SacrificedPackets == 0 {
				t.Error("scan arm recovered without flushing anything")
			}
		case ArmNone:
			if s.DeadlockSeeds != len(seeds) {
				t.Errorf("control deadlocked on only %d/%d seeds; the comparison needs a control that starves",
					s.DeadlockSeeds, len(seeds))
			}
			if s.RecoveredSeeds != 0 {
				t.Errorf("control recovered on %d seeds with no protection installed", s.RecoveredSeeds)
			}
		}
	}
	// The headline ordering: prevention beats both reactive arms on
	// goodput, and every protected arm beats nothing wouldn't hold (the
	// reactive arms pay for recovery in sacrificed packets), so pin only
	// the prevention win.
	byArm := map[DetectArm]DetectArmSummary{}
	for _, s := range sums {
		byArm[s.Arm] = s
	}
	if tg, dt := byArm[ArmTagger], byArm[ArmDetect]; tg.MeanGoodputGbps <= dt.MeanGoodputGbps {
		t.Errorf("tagger goodput %.1f <= detect goodput %.1f; prevention lost its headline",
			tg.MeanGoodputGbps, dt.MeanGoodputGbps)
	}
	if table := DetectMatrixTable(sums); table == "" {
		t.Error("empty matrix table")
	}
}

// TestDetectMatrixParDeterminism is the matrix's par-independence
// contract, run under -race by `make determinism`: fanning the seeded
// runs across workers changes wall-clock only — per-cell results and
// the merged telemetry are identical to the serial sweep.
func TestDetectMatrixParDeterminism(t *testing.T) {
	seeds := sweep.Seeds(1, 3)
	serialReg := telemetry.NewRegistry()
	serial, err := DetectMatrix(seeds, 1, Observers{Telemetry: serialReg})
	if err != nil {
		t.Fatal(err)
	}
	parReg := telemetry.NewRegistry()
	par, err := DetectMatrix(seeds, 4, Observers{Telemetry: parReg})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range DetectArms() {
		if !reflect.DeepEqual(serial[arm], par[arm]) {
			t.Errorf("arm %s: par=4 results diverge from par=1:\n%+v\n%+v",
				arm, serial[arm], par[arm])
		}
	}
	sa, sb := serialReg.Snapshot(), parReg.Snapshot()
	if ca, cb := dropSpanCounters(sa.Counters), dropSpanCounters(sb.Counters); !reflect.DeepEqual(ca, cb) {
		t.Errorf("merged counters diverge between par=1 and par=4:\n%+v\n%+v", ca, cb)
	}
}
