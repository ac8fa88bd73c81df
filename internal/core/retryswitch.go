package core

import "cmpcache/internal/config"

// RetrySwitch implements the Section 2.2 adaptive on/off control for the
// WBHT: "We implement a simple timer and maintain a count of retry
// transactions ... When the number of retries in a specified period of
// time goes below a certain threshold, we do not use the WBHT to make
// decisions ... although we do keep the table up-to-date."
//
// The switch samples retries over fixed windows: at each window
// boundary, the table becomes active for the next window iff the
// completed window saw at least threshold retries. The paper's operating
// point is 2,000 retries per 1M cycles; config.DefaultWBHT expresses the
// same rate over a shorter window so brief simulations adapt
// proportionally.
type RetrySwitch struct {
	window    config.Cycles
	threshold uint64

	windowStart config.Cycles
	count       uint64
	active      bool

	retriesSeen   uint64
	activeWindows uint64
	totalWindows  uint64
}

// NewRetrySwitch builds a switch from cfg. A disabled switch
// (cfg.SwitchEnabled == false) reports always-active, i.e. the WBHT is
// consulted unconditionally. window and threshold must be positive when
// enabled.
func NewRetrySwitch(cfg config.WBHTConfig) *RetrySwitch {
	if !cfg.SwitchEnabled {
		return &RetrySwitch{active: true, window: 0}
	}
	if cfg.RetryWindow <= 0 {
		panic("core: RetrySwitch window must be positive")
	}
	return &RetrySwitch{window: cfg.RetryWindow, threshold: cfg.RetryThreshold}
}

// RecordRetry notes one retry combined-response observed at cycle now.
func (s *RetrySwitch) RecordRetry(now config.Cycles) {
	s.retriesSeen++
	if s.window == 0 {
		return
	}
	s.advance(now)
	s.count++
}

// advance rolls the sampling window forward to cover now. If exactly one
// window elapsed, the activity decision reflects its count; if more than
// one elapsed, the most recent complete window had zero retries, so the
// switch deactivates.
func (s *RetrySwitch) advance(now config.Cycles) {
	if now < s.windowStart+s.window {
		return
	}
	elapsed := (now - s.windowStart) / s.window
	s.totalWindows += uint64(elapsed)
	if elapsed == 1 {
		s.active = s.count >= s.threshold
	} else {
		s.active = false
	}
	if s.active {
		s.activeWindows++
	}
	s.count = 0
	s.windowStart += elapsed * s.window
}

// AdvanceTo rolls the sampling window forward to cover now without
// recording anything. The event loop calls it before the first event of
// every cycle, so every reader in that cycle sees the same state.
func (s *RetrySwitch) AdvanceTo(now config.Cycles) {
	if s.window == 0 {
		return
	}
	s.advance(now)
}

// ActiveNow reports whether the WBHT should be consulted, as of the
// switch's last advance. It never rolls the sampling window forward, so
// reading it — to decide or only to observe — never perturbs the window
// sequence.
func (s *RetrySwitch) ActiveNow() bool { return s.active }

// RetriesSeen returns the total retries recorded.
func (s *RetrySwitch) RetriesSeen() uint64 { return s.retriesSeen }

// ActiveWindows returns how many completed windows ended with the switch
// turning (or staying) on.
func (s *RetrySwitch) ActiveWindows() uint64 { return s.activeWindows }

// TotalWindows returns how many windows have completed.
func (s *RetrySwitch) TotalWindows() uint64 { return s.totalWindows }
