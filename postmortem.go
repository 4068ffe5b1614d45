package tagger

import (
	"bytes"
	"strings"
	"sync"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace/pipeline"
)

// Flight-recorder surface: the simulator's always-on incident capture
// (armed through Observers.FlightRec) and the forensics that read it
// back.
type (
	// FlightRecConfig tunes the flight recorder (ring size, event
	// window, per-incident cooldown, capture cap, delivery sink).
	FlightRecConfig = sim.FlightRecConfig
	// Incident is one frozen capture: trigger, site, simulated time,
	// and a self-contained binary trace (events + snapshot).
	Incident = sim.Incident
)

// PostmortemReport runs the forensics pipeline over one incident
// capture and returns the rendered report — the library form of
// `taggertrace postmortem <file>`.
func PostmortemReport(data []byte) (string, error) {
	src, err := pipeline.NewBinarySource(bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := pipeline.RunPostmortem(src, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// PostmortemStore accumulates captured incidents with their rendered
// reports and serves them to the telemetry ops endpoint: plug Sink()
// into FlightRecConfig.Sink and the store into
// telemetry.StartOpsWithPostmortem, and every capture appears at
// /debug/postmortem moments after the recorder freezes. Safe for
// concurrent use (simulation goroutine appends, HTTP handlers read).
type PostmortemStore struct {
	mu  sync.Mutex
	eps []telemetry.PostmortemEpisode
}

// Sink returns the FlightRecConfig.Sink adapter: it renders each
// incident's forensics report eagerly (capture time is already off the
// simulator's hot path) and files the episode.
func (s *PostmortemStore) Sink() func(Incident) error {
	return func(inc Incident) error {
		rep, err := PostmortemReport(inc.Data)
		if err != nil {
			rep = "postmortem render failed: " + err.Error() + "\n"
		}
		s.mu.Lock()
		s.eps = append(s.eps, telemetry.PostmortemEpisode{
			Seq:     inc.Seq,
			Trigger: inc.Trigger,
			Node:    inc.Node,
			At:      inc.At,
			Report:  rep,
		})
		s.mu.Unlock()
		return nil
	}
}

// PostmortemEpisodes implements telemetry.PostmortemSource.
func (s *PostmortemStore) PostmortemEpisodes() []telemetry.PostmortemEpisode {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]telemetry.PostmortemEpisode, len(s.eps))
	copy(out, s.eps)
	return out
}

// Len reports how many episodes the store holds.
func (s *PostmortemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.eps)
}
