package system

// releaseL3Token returns one L3 incoming-queue token, keeping the
// auditor's credit ledger in step. Every release in the system goes
// through here.
func (s *System) releaseL3Token() {
	s.l3.ReleaseToken()
	if s.auditor != nil {
		s.auditor.OnTokenReleased()
	}
}
