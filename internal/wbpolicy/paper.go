package wbpolicy

import (
	"cmpcache/internal/config"
	"cmpcache/internal/core"
)

// paper implements the paper's four configurations — baseline, WBHT,
// snarf, combined — as one policy parameterized by which tables exist.
// The port is behaviorally exact: every table consult, counter update
// and gating condition happens at the same point, under the same
// condition, as the pre-extraction hard-coded paths (the experiment
// goldens are byte-identical across the refactor). It accepts every
// snarf offer that passes the structural checks (Base.AcceptOffer): the
// reuse filter already ran at the writer.
type paper struct {
	Base
	wbht     []*core.WBHT       // one per L2 under WBHT and Combined, else nil
	snarf    []*core.SnarfTable // one per L2 under Snarf and Combined, else nil
	globalWB bool               // Figure 3 global WBHT allocation variant
}

func newPaper(cfg *config.Config) *paper {
	p := &paper{globalWB: cfg.WBHT.GlobalAllocate}
	for i := 0; i < cfg.NumL2(); i++ {
		if cfg.Mechanism == config.WBHT || cfg.Mechanism == config.Combined {
			p.wbht = append(p.wbht, core.NewWBHT(cfg.WBHT))
		}
		if cfg.Mechanism == config.Snarf || cfg.Mechanism == config.Combined {
			p.snarf = append(p.snarf, core.NewSnarfTable(cfg.Snarf))
		}
	}
	return p
}

func (p *paper) SnoopsWB() bool      { return p.snarf != nil }
func (p *paper) GatedBySwitch() bool { return p.wbht != nil }

func (p *paper) WBHT(l2 int) *core.WBHT {
	if p.wbht == nil {
		return nil
	}
	return p.wbht[l2]
}

func (p *paper) SnarfTable(l2 int) *core.SnarfTable {
	if p.snarf == nil {
		return nil
	}
	return p.snarf[l2]
}

func (p *paper) AbortCleanWB(l2 int, key uint64, switchActive, inL3 bool) bool {
	if p.wbht == nil || !switchActive {
		return false
	}
	w := p.wbht[l2]
	abort := w.ShouldAbort(key)
	w.RecordDecision(abort, inL3)
	return abort
}

func (p *paper) FlagWriteBack(l2 int, key uint64) bool {
	if p.snarf == nil {
		return false
	}
	return p.snarf[l2].Snarfable(key)
}

// ObserveWriteBack: "The tag for a line is entered into the table when
// the line is written back by any L2 cache" — every table observes
// every write back on the bus.
func (p *paper) ObserveWriteBack(key uint64) {
	for _, t := range p.snarf {
		t.RecordWriteBack(key)
	}
}

// ObserveCleanWBOutcome: the WBHT learns from the L3's snoop response
// to clean write backs — on the writing L2's table, or on every table
// under the global-allocation variant. The table is kept up to date
// even while the retry switch has disabled its use.
func (p *paper) ObserveCleanWBOutcome(writer int, key uint64, l3Has bool) {
	if p.wbht == nil || !l3Has {
		return
	}
	if p.globalWB {
		for _, w := range p.wbht {
			w.Allocate(key)
		}
		return
	}
	p.wbht[writer].Allocate(key)
}

// ObserveDemandMiss: the snarf reuse tables observe every demand miss
// on the bus ("missed on either locally or by another L2 cache").
func (p *paper) ObserveDemandMiss(key uint64) {
	for _, t := range p.snarf {
		t.RecordMiss(key)
	}
}
