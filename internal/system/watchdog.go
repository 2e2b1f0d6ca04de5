// Simulation health: a progress watchdog that detects wedged runs
// (deadlock or livelock) long before the horizon, and reports which cores
// are stuck and why instead of silently burning the remaining cycles.
package system

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Watchdog periodically samples global progress (retired instructions and
// delivered network flits). After a configured number of consecutive
// sample windows with no progress on either axis it trips: it records a
// per-core blocked-state report and halts the kernel by zeroing its event
// budget, so Run returns immediately rather than at the horizon.
//
// The watchdog's own periodic event doubles as the heartbeat that keeps
// simulated time advancing when every core is asleep on a spin-wait (an
// idle deadlock drains the event queue — without the heartbeat the kernel
// would stop the clock and the stall would go undetected until the
// horizon).
type Watchdog struct {
	s         *System
	interval  sim.Time
	maxStalls int

	lastInstr     uint64
	lastDelivered uint64
	stalls        int

	tripped bool
	report  string
}

// startWatchdog arms the watchdog; interval and maxStalls must be
// positive (the caller gates on the config). The watchdog is one
// self-rescheduling kernel event.
func startWatchdog(s *System, interval sim.Time, maxStalls int) *Watchdog {
	w := &Watchdog{s: s, interval: interval, maxStalls: maxStalls}
	s.K.Schedule(interval, w.tick)
	return w
}

func (w *Watchdog) tick() {
	if !w.check() {
		w.s.K.Schedule(w.interval, w.tick)
	}
}

// check samples global progress and trips after maxStalls stagnant
// windows, halting the engine. Reports whether the watchdog tripped.
func (w *Watchdog) check() bool {
	var instr uint64
	for _, c := range w.s.Core {
		instr += c.Instructions
	}
	delivered := w.s.Net.Stats().Delivered
	if instr == w.lastInstr && delivered == w.lastDelivered {
		w.stalls++
	} else {
		w.stalls = 0
	}
	w.lastInstr, w.lastDelivered = instr, delivered
	if w.stalls < w.maxStalls {
		return false
	}
	w.tripped = true
	w.report = w.blockedReport()
	// Halting the kernel from inside one of its own events: zero the
	// event budget so Run stops at the next event boundary with every
	// queued event preserved for post-mortem inspection.
	w.s.K.SetEventBudget(0)
	return true
}

// Tripped reports whether the watchdog detected a stall.
func (w *Watchdog) Tripped() bool { return w != nil && w.tripped }

// Report returns the per-core blocked-state dump captured when the
// watchdog tripped (empty otherwise).
func (w *Watchdog) Report() string {
	if w == nil {
		return ""
	}
	return w.report
}

// blockedReport names every unfinished core and its coherence-layer
// blocked state at trip time.
func (w *Watchdog) blockedReport() string {
	var b strings.Builder
	window := sim.Time(w.maxStalls) * w.interval
	fmt.Fprintf(&b, "no progress for %d cycles (instr=%d, delivered=%d) at cycle %d; stuck cores:",
		window, w.lastInstr, w.lastDelivered, w.s.K.Now())
	stuck := 0
	for _, c := range w.s.Core {
		if c.Finished {
			continue
		}
		stuck++
		fmt.Fprintf(&b, "\n  core %d: %s", c.ID, w.s.Coh.CoreState(c.ID))
	}
	if stuck == 0 {
		b.WriteString(" (none — all cores finished; in-flight traffic stalled)")
	}
	return b.String()
}
