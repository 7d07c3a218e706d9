// Package progress provides run observability for long Monte-Carlo
// experiments: lock-free atomic counters for completed replications and
// fading realizations, elapsed-time and ETA estimates, and an optional
// background reporter that prints a status line to a writer at a fixed
// interval.
//
// The counters live in an obs.Registry, the shared substrate of the
// observability layer: the same tallies the status line renders are
// visible to /debug/obs and any other registry view, so the progress
// reporter is one face over the numbers rather than a private copy.
//
// The experiment harness (internal/sim) notifies a Tracker from many worker
// goroutines at once; every counting method is safe for concurrent use and
// cheap enough to call from inner loops. All methods are nil-receiver-safe,
// so instrumented code paths can hold a nil *Tracker when observability is
// switched off and pay only a nil check.
package progress

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rayfade/internal/obs"
)

// Registry counter names a Tracker maintains.
const (
	CounterTotal        = "progress.replications_total"
	CounterDone         = "progress.replications_done"
	CounterRealizations = "progress.realizations"
)

// Tracker accumulates progress counters for one experiment run.
type Tracker struct {
	label string
	w     io.Writer
	start time.Time
	now   func() time.Time // injectable clock; tests pin it for exact ETA math

	reg          *obs.Registry
	total        *obs.Counter // replications expected
	done         *obs.Counter // replications completed
	realizations *obs.Counter // fading realizations drawn

	mu     sync.Mutex // guards stop/wg lifecycle
	stop   chan struct{}
	ticker *time.Ticker
	wg     sync.WaitGroup
}

// New creates a Tracker labelled for reporting, counting into a fresh
// private registry. Reports go to w (typically os.Stderr); a nil w silences
// reporting but keeps the counters live.
func New(label string, w io.Writer) *Tracker {
	return NewWithRegistry(label, w, obs.NewRegistry())
}

// NewWithRegistry creates a Tracker whose counters live in reg, so the same
// tallies are visible to every other view of that registry (e.g. a daemon's
// /debug/obs page). A nil reg behaves like New.
func NewWithRegistry(label string, w io.Writer, reg *obs.Registry) *Tracker {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Tracker{
		label:        label,
		w:            w,
		start:        time.Now(),
		now:          time.Now,
		reg:          reg,
		total:        reg.Counter(CounterTotal),
		done:         reg.Counter(CounterDone),
		realizations: reg.Counter(CounterRealizations),
	}
}

// Registry exposes the registry backing the counters. Nil-safe (nil).
func (t *Tracker) Registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// AddTotal registers n further expected replications. The harness calls it
// once per sim.ParallelCtx fan-out, so experiments composed of several fan-outs
// accumulate a correct denominator.
func (t *Tracker) AddTotal(n int) {
	if t == nil {
		return
	}
	t.total.Add(int64(n))
}

// ReplicationDone records one completed replication.
func (t *Tracker) ReplicationDone() {
	if t == nil {
		return
	}
	t.done.Add(1)
}

// AddDone records n replications completed at once. Local runs tick
// ReplicationDone per replication; a cluster coordinator calls AddDone with
// a whole shard's replication count when the shard lands, so one Tracker
// aggregates progress (and therefore ETA) across every remote worker
// instead of only counting local work.
func (t *Tracker) AddDone(n int) {
	if t == nil {
		return
	}
	t.done.Add(int64(n))
}

// AddRealizations records n further Monte-Carlo fading realizations.
// Instrumented inner loops batch their ticks (e.g. once per transmit seed)
// so the atomic add stays far off the per-draw hot path.
func (t *Tracker) AddRealizations(n int) {
	if t == nil {
		return
	}
	t.realizations.Add(int64(n))
}

// Snapshot is a point-in-time view of a run.
type Snapshot struct {
	Label        string
	Done, Total  int64
	Realizations int64
	Elapsed      time.Duration
	// ETA estimates the remaining time from the mean replication duration so
	// far; it is zero until the first replication completes.
	ETA time.Duration
}

// Snapshot captures the current counters. Safe to call concurrently with the
// counting methods; a nil Tracker yields a zero Snapshot.
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Label:        t.label,
		Done:         t.done.Load(),
		Total:        t.total.Load(),
		Realizations: t.realizations.Load(),
		Elapsed:      t.now().Sub(t.start),
	}
	if s.Done > 0 && s.Total > s.Done {
		per := s.Elapsed / time.Duration(s.Done)
		s.ETA = per * time.Duration(s.Total-s.Done)
	}
	return s
}

// String renders the snapshot as a single status line.
func (s Snapshot) String() string {
	line := fmt.Sprintf("%s: %d/%d replications", s.Label, s.Done, s.Total)
	if s.Total > 0 {
		line += fmt.Sprintf(" (%.0f%%)", 100*float64(s.Done)/float64(s.Total))
	}
	if s.Realizations > 0 {
		line += fmt.Sprintf(" · %s realizations", countString(s.Realizations))
	}
	line += fmt.Sprintf(" · elapsed %s", s.Elapsed.Round(time.Second))
	if s.ETA > 0 {
		line += fmt.Sprintf(" · eta %s", s.ETA.Round(time.Second))
	}
	return line
}

// countString renders large counts compactly (1234567 → "1.23M").
func countString(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Start launches the background reporter, printing a status line every
// interval until Stop is called. Starting an already-started or nil Tracker,
// or one without a writer, is a no-op.
func (t *Tracker) Start(interval time.Duration) {
	if t == nil || t.w == nil || interval <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.ticker = time.NewTicker(interval)
	// The goroutine must capture the channel and ticker as locals: Stop nils
	// the struct fields, and re-reading t.stop after that would block forever
	// on a nil channel.
	stop, ticker := t.stop, t.ticker
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			select {
			case <-ticker.C:
				fmt.Fprintln(t.w, t.Snapshot())
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the background reporter and prints one final status line, so
// even runs shorter than the reporting interval leave a trace. Safe on a nil
// or never-started Tracker.
func (t *Tracker) Stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.stop != nil {
		close(t.stop)
		t.ticker.Stop()
		t.stop = nil
	}
	t.mu.Unlock()
	t.wg.Wait()
	if t.w != nil {
		fmt.Fprintln(t.w, t.Snapshot())
	}
}
