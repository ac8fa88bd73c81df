package system

import (
	"cmpcache/internal/audit"
)

// AttachAuditor installs a as this run's shadow invariant checker: the
// event loop drives its periodic sweeps (per global event, and per
// slice-lane cycle for that cycle's slice events), and the protocol
// commit points call its semantic hooks — directly from global context,
// through the replay at the end of each slice-lane cycle from shard
// context. Attach before Run. Like the metrics probe, an auditor is observation-only —
// it never perturbs the event sequence — and a system without one pays
// a single nil check per hook site.
func (s *System) AttachAuditor(a *audit.Auditor) {
	s.auditor = a
	a.Bind(audit.View{
		Cfg:        &s.cfg,
		L2s:        s.l2s,
		L3:         s.l3,
		WBInFlight: func(idx int) bool { return s.wbInFlight[idx] },
		Counters: func() audit.Counters {
			return audit.Counters{
				SnarfArbitrated: s.collector.SnarfArbitrated(),
				WBSnarfed:       s.wbSnarfed,
				SnarfFallbacks:  s.snarfFallbacks,
			}
		},
	})
}

// releaseL3Token returns one L3 incoming-queue token, keeping the
// auditor's credit ledger in step. Every release in the system goes
// through here.
func (s *System) releaseL3Token() {
	s.l3.ReleaseToken()
	if s.auditor != nil {
		s.auditor.OnTokenReleased()
	}
}
