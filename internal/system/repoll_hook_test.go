package system

import "cmpcache/internal/l2"

// SetRepollCheck installs fn as s's short-path re-poll check (see
// System.repollCheck) for the external exactness test, which needs the
// audit campaign's seeded configurations and so cannot live in this
// package.
func SetRepollCheck(s *System, fn func(c *l2.Cache, key uint64)) { s.repollCheck = fn }
