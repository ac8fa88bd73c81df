package audit

import (
	"strings"
	"testing"

	"cmpcache/internal/l2"
)

// TestBindRejectsMoreL2sThanHolderBits: the sweep's holder masks have
// one bit per L2, so a chip with more slices than bits must fail the
// audit, naming its slice count, instead of reporting ok.
func TestBindRejectsMoreL2sThanHolderBits(t *testing.T) {
	a := New(Config{Differential: true})
	a.Bind(View{L2s: make([]*l2.Cache, maxAuditedL2s)})
	if !a.Ok() {
		t.Fatalf("%d L2s: %s", maxAuditedL2s, a.Summary())
	}

	a = New(Config{Differential: true})
	a.Bind(View{L2s: make([]*l2.Cache, 80)})
	v := a.Violations()
	if a.Ok() || len(v) != 1 || v[0].Kind != "too-many-l2s" || !strings.Contains(v[0].Msg, "80 L2 slices") {
		t.Fatalf("80 L2s: ok=%v, violations %v; want one too-many-l2s naming 80 L2 slices", a.Ok(), v)
	}
}
