package system

import (
	"fmt"
	"strings"

	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/metrics"
	"cmpcache/internal/stats"
	"cmpcache/internal/txlat"
	"cmpcache/internal/wbpolicy"
)

// WBHTStats aggregates the Write Back History Tables across L2s.
type WBHTStats struct {
	Allocations uint64
	Consults    uint64
	Hits        uint64
	Correct     uint64
	Wrong       uint64
}

// CorrectRate returns the Table 4 "WBHT Correct" fraction in [0,1].
func (w WBHTStats) CorrectRate() float64 {
	return stats.Ratio(w.Correct, w.Correct+w.Wrong)
}

// SnarfStats aggregates the snarf machinery across L2s.
type SnarfStats struct {
	TableRecorded uint64
	TableReuse    uint64
	Offers        uint64
	Accepts       uint64
	Installs      uint64
	DeclinedMSHR  uint64
	DeclinedFull  uint64
	UsedLocally   uint64
	Interventions uint64
	SharedDropped uint64
}

// Results is the complete statistical outcome of one simulation run —
// every figure and table in the paper derives from these fields.
type Results struct {
	Config config.Config

	// Execution time: the cycle at which the last thread reference
	// completed — the paper's runtime metric.
	Cycles uint64

	RefsIssued    uint64
	RefsCompleted uint64

	L2 l2.Stats // summed over the four caches

	// Demand fill sources. OffChipAccesses = L3 + memory fills, the
	// Table 5 "Reduction in Off-Chip Accesses" metric.
	FillsFromPeer uint64
	FillsFromL3   uint64
	FillsFromMem  uint64
	Upgrades      uint64

	// Write-back traffic. WBRequests is the paper's Table 4 "L2 Write
	// Back Requests": write backs issued on the bus. A retried entry is
	// requeued and re-issued through the write-back pump, so each retry
	// already appears here as its own bus issue — WBRetried is a subset
	// of, not an addition to, this count.
	WBRequests     uint64
	WBSquashedL3   uint64
	WBSquashedPeer uint64
	WBSnarfed      uint64
	WBToL3         uint64
	WBRetried      uint64
	WBCancelled    uint64

	// L3 statistics (Table 1, Table 4).
	L3LoadLookups    uint64
	L3LoadHits       uint64
	L3DemandLookups  uint64
	L3DemandHits     uint64
	L3RetriesIssued  uint64
	L3Castouts       uint64
	L3Evictions      uint64
	L3Invalidations  uint64
	L3CleanWBSnooped uint64
	L3CleanWBAlready uint64
	L3Occupancy      int
	CleanWBFirstTime uint64
	CleanWBLostL3    uint64
	L3QueueAcquired  uint64
	L3QueueRejected  uint64
	L3QueuePeak      int
	L3SliceWaited    uint64

	// Interconnect and memory.
	AddressTxns     uint64
	DataTransfers   uint64
	AddressUtil     float64
	DataUtil        float64
	AddressWaited   uint64
	DataWaited      uint64
	MemReads        uint64
	MemWrites       uint64
	TotalBusRetries uint64

	WBHT  WBHTStats
	Snarf SnarfStats

	// Policy carries counters specific to plug-in write-back policies
	// (reuse-distance gating, hybrid update/invalidate). It is nil for
	// the paper mechanisms so their JSON exports keep unchanged bytes.
	Policy *wbpolicy.Stats `json:",omitempty"`

	// Update-mode ownership claims (hybrid update/invalidate policy).
	// UpgradeUpdates counts claims committed as updates; UpdatePushes
	// the subset that found live sharers and pushed data to them. Both
	// are omitted when zero so paper-mechanism exports are unchanged.
	UpgradeUpdates uint64 `json:",omitempty"`
	UpdatePushes   uint64 `json:",omitempty"`

	// Adaptive switch activity.
	SwitchActiveWindows uint64
	SwitchTotalWindows  uint64

	Reuse ReuseStats

	// FillLatency is the distribution of issue-to-completion times over
	// all references (hits and misses).
	FillLatency stats.Histogram

	UpgradeRestarts uint64
	SnarfFallbacks  uint64

	// End-of-run residuals: resources still held when the engine
	// drained. System teardown does not flush anything — a drained
	// event queue with completed threads already implies the write-back
	// pump and L3 queue have emptied — so Results reports the residual
	// counts explicitly and the audit checker asserts they are zero
	// (see DESIGN.md §12).
	ResidualMSHRs         int
	ResidualWBQueued      int
	ResidualWBInFlight    int
	ResidualL3QueueTokens int

	// EventsFired counts discrete events executed by the engine during
	// the run — the denominator for events/sec throughput figures.
	EventsFired uint64

	// Metrics is the per-interval time series collected when a metrics
	// probe was attached (nil otherwise, and omitted from JSON so runs
	// without a probe export unchanged bytes).
	Metrics *metrics.Series `json:",omitempty"`

	// Latency is the stage-attributed latency report collected when a
	// latency collector was attached (nil otherwise, and omitted from
	// JSON so runs without one export unchanged bytes).
	Latency *txlat.Report `json:",omitempty"`
}

// results gathers all component statistics after a run.
func (s *System) results() *Results {
	elapsed := s.threads.FinishTime()
	r := &Results{
		Config:        s.cfg,
		Cycles:        uint64(elapsed),
		RefsIssued:    s.threads.Issued(),
		RefsCompleted: s.threads.Completed(),

		FillsFromPeer: s.fillsFromPeer,
		FillsFromL3:   s.fillsFromL3,
		FillsFromMem:  s.fillsFromMem,
		Upgrades:      s.upgrades,

		WBRequests:     s.wbTxns,
		WBSquashedL3:   s.wbSquashedByL3,
		WBSquashedPeer: s.wbSquashedPeer,
		WBSnarfed:      s.wbSnarfed,
		WBToL3:         s.wbToL3,
		WBRetried:      s.wbRetried,
		WBCancelled:    s.wbCancelled,

		L3LoadLookups:    s.l3.LoadLookups(),
		L3LoadHits:       s.l3.LoadHits(),
		L3DemandLookups:  s.l3.DemandLookups(),
		L3DemandHits:     s.l3.DemandHits(),
		L3RetriesIssued:  s.l3.RetriesIssued(),
		L3Castouts:       s.l3.Castouts(),
		L3Evictions:      s.l3.Evictions(),
		L3Invalidations:  s.l3.Invalidations(),
		L3CleanWBSnooped: s.l3.CleanWBSnooped(),
		L3CleanWBAlready: s.l3.CleanWBRedundant(),
		L3Occupancy:      s.l3.Occupancy(),

		AddressTxns:     s.ring.AddressTransactions(),
		DataTransfers:   s.ring.DataTransfers(),
		AddressUtil:     s.ring.AddressUtilization(elapsed),
		DataUtil:        s.ring.DataUtilization(elapsed),
		AddressWaited:   uint64(s.ring.AddressWaited()),
		DataWaited:      uint64(s.ring.DataWaited()),
		MemReads:        s.mem.Reads(),
		MemWrites:       s.mem.Writes(),
		TotalBusRetries: s.collector.Retries(),

		SwitchActiveWindows: s.rswitch.ActiveWindows(),
		SwitchTotalWindows:  s.rswitch.TotalWindows(),

		Reuse:       s.reuse.snapshot(),
		FillLatency: s.fillLatency,

		UpgradeRestarts: s.upgradeRestarts,
		SnarfFallbacks:  s.snarfFallbacks,

		Policy:         s.policy.Stats(),
		UpgradeUpdates: s.upgradeUpdates,
		UpdatePushes:   s.updatePushes,

		ResidualL3QueueTokens: s.l3.QueueInUse(),

		EventsFired: s.eventsFired(),
	}
	for i, c := range s.l2s {
		r.ResidualMSHRs += c.MSHRCount()
		r.ResidualWBQueued += c.WBQueueLen()
		if s.wbInFlight[i] {
			r.ResidualWBInFlight++
		}
	}
	if p := s.attached.Probe; p != nil {
		r.Metrics = p.Finish(elapsed)
	}
	if c := s.attached.Latency; c != nil {
		r.Latency = c.Finish(elapsed)
	}
	// The Reuse snapshot above drained the tracker's log.
	r.CleanWBFirstTime, r.CleanWBLostL3 = s.reuse.table.cleanWBFirst, s.reuse.table.cleanWBLost
	r.L3QueueAcquired, r.L3QueueRejected, r.L3QueuePeak = s.l3.QueueStats()
	r.L3SliceWaited = uint64(s.l3.SliceWaited())
	for _, c := range s.l2s {
		st := c.StatsSnapshot()
		r.L2.Accesses += st.Accesses
		r.L2.Hits += st.Hits
		r.L2.MSHRAttach += st.MSHRAttach
		r.L2.WBBufferHits += st.WBBufferHits
		r.L2.Misses += st.Misses
		r.L2.CleanVictims += st.CleanVictims
		r.L2.DirtyVictims += st.DirtyVictims
		r.L2.CleanWBQueued += st.CleanWBQueued
		r.L2.CleanWBAborted += st.CleanWBAborted
		r.L2.HistoryVictims += st.HistoryVictims
		r.L2.SharedDropped += st.SharedDropped
		r.L2.SnarfOffers += st.SnarfOffers
		r.L2.SnarfAccepts += st.SnarfAccepts
		r.L2.SnarfInstalls += st.SnarfInstalls
		r.L2.SnarfDeclinedMSHR += st.SnarfDeclinedMSHR
		r.L2.SnarfDeclinedFull += st.SnarfDeclinedFull
		r.L2.SnarfedUsedLocally += st.SnarfedUsedLocally
		r.L2.SnarfedIntervention += st.SnarfedIntervention
		r.L2.SnoopsObserved += st.SnoopsObserved
		r.L2.Invalidations += st.Invalidations
		r.L2.Interventions += st.Interventions

		if w := c.WBHT(); w != nil {
			r.WBHT.Allocations += w.Allocations()
			r.WBHT.Consults += w.Consults()
			r.WBHT.Hits += w.Hits()
			r.WBHT.Correct += w.Correct()
			r.WBHT.Wrong += w.Wrong()
		}
		if t := c.SnarfTable(); t != nil {
			r.Snarf.TableRecorded += t.RecordedWriteBacks()
			r.Snarf.TableReuse += t.ReuseMarks()
			r.Snarf.Offers += st.SnarfOffers
			r.Snarf.Accepts += st.SnarfAccepts
			r.Snarf.Installs += st.SnarfInstalls
			r.Snarf.DeclinedMSHR += st.SnarfDeclinedMSHR
			r.Snarf.DeclinedFull += st.SnarfDeclinedFull
			r.Snarf.UsedLocally += st.SnarfedUsedLocally
			r.Snarf.Interventions += st.SnarfedIntervention
			r.Snarf.SharedDropped += st.SharedDropped
		}
	}
	return r
}

// --- Derived metrics used by the experiment harness ---

// L2HitRate returns local L2 hit rate including write-back-buffer hits
// (Table 5's "Increase in Local L2 Hit Rate" compares this across runs).
func (r *Results) L2HitRate() float64 {
	return stats.Ratio(r.L2.Hits+r.L2.WBBufferHits, r.L2.Accesses)
}

// L3LoadHitRate returns the Table 4 "L3 Load Hit Rate".
func (r *Results) L3LoadHitRate() float64 {
	return stats.Ratio(r.L3LoadHits, r.L3LoadLookups)
}

// OffChipAccesses returns demand fills serviced off chip (L3 + memory).
func (r *Results) OffChipAccesses() uint64 {
	return r.FillsFromL3 + r.FillsFromMem
}

// PctCleanWBAlreadyInL3 returns Table 1's percentage: clean write backs
// snooped by the L3 whose line was already valid there.
func (r *Results) PctCleanWBAlreadyInL3() float64 {
	return stats.Percent(r.L3CleanWBAlready, r.L3CleanWBSnooped)
}

// PctWBSnarfed returns Table 5's "Write Backs Snarfed": snarfed write
// backs as a percentage of write backs issued.
func (r *Results) PctWBSnarfed() float64 {
	return stats.Percent(r.WBSnarfed, r.WBRequests)
}

// PctSnarfedUsedLocally returns Table 5's "Snarfed Lines Used Locally".
func (r *Results) PctSnarfedUsedLocally() float64 {
	return stats.Percent(r.Snarf.UsedLocally, r.Snarf.Installs)
}

// PctSnarfedInterventions returns Table 5's "Snarfed Lines Provided for
// Interventions".
func (r *Results) PctSnarfedInterventions() float64 {
	return stats.Percent(r.Snarf.Interventions, r.Snarf.Installs)
}

// Summary renders a human-readable multi-line report (cmpsim output).
func (r *Results) Summary() string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("mechanism            %s", r.Config.Mechanism)
	p("max outstanding      %d / thread", r.Config.MaxOutstanding)
	p("execution time       %d cycles", r.Cycles)
	p("references           %d issued, %d completed", r.RefsIssued, r.RefsCompleted)
	p("L2 accesses          %d (hit rate %.2f%%, %d MSHR attaches, %d WB-buffer hits)",
		r.L2.Accesses, 100*r.L2HitRate(), r.L2.MSHRAttach, r.L2.WBBufferHits)
	p("demand fills         peer-L2 %d, L3 %d, memory %d (off-chip %d)",
		r.FillsFromPeer, r.FillsFromL3, r.FillsFromMem, r.OffChipAccesses())
	p("upgrades             %d (+%d restarted as RWITM)", r.Upgrades, r.UpgradeRestarts)
	p("L2 write backs       %d requests: %d to L3, %d squashed by L3, %d clean aborts (WBHT)",
		r.WBRequests, r.WBToL3, r.WBSquashedL3, r.L2.CleanWBAborted)
	p("L3 load hit rate     %.2f%% (%d/%d)", 100*r.L3LoadHitRate(), r.L3LoadHits, r.L3LoadLookups)
	p("L3-issued retries    %d", r.L3RetriesIssued)
	p("clean WBs already L3 %.1f%% (Table 1 metric)", r.PctCleanWBAlreadyInL3())
	p("WB reuse             %.1f%% of attempted, %.1f%% of accepted (Table 2 metric)",
		r.Reuse.PctTotalReused(), r.Reuse.PctAcceptedReused())
	if r.Config.Mechanism == config.WBHT || r.Config.Mechanism == config.Combined {
		p("WBHT                 %d allocs, %d consults, %d aborts, correct %.1f%%",
			r.WBHT.Allocations, r.WBHT.Consults, r.WBHT.Hits, 100*r.WBHT.CorrectRate())
		p("retry switch         active %d / %d windows", r.SwitchActiveWindows, r.SwitchTotalWindows)
	}
	if r.Config.Mechanism == config.Snarf || r.Config.Mechanism == config.Combined {
		p("snarfing             %d offers, %d installs (%.1f%% of WBs), %d peer squashes",
			r.Snarf.Offers, r.Snarf.Installs, r.PctWBSnarfed(), r.WBSquashedPeer)
		p("snarfed-line use     %.1f%% locally, %.1f%% interventions",
			r.PctSnarfedUsedLocally(), r.PctSnarfedInterventions())
	}
	if r.Config.Mechanism == config.ReuseDist && r.Policy != nil {
		p("reuse-dist sketch    %d samples over %d evictions, %d cold passes",
			r.Policy.SketchSamples, r.Policy.SketchEvictions, r.Policy.PredictCold)
		p("reuse-dist gating    %d consults, %d aborts (%d with line already in L3)",
			r.Policy.PredictConsults, r.Policy.PredictAborts, r.Policy.AbortsLineInL3)
	}
	if r.Config.Mechanism == config.HybridUI && r.Policy != nil {
		p("hybrid upd/inv       %d scored reads; upgrades: %d updates (%d pushes), %d invalidates",
			r.Policy.ScoredReads, r.UpgradeUpdates, r.UpdatePushes, r.Policy.InvalidateUpgrades)
	}
	p("ring                 addr util %.1f%%, data util %.1f%%",
		100*r.AddressUtil, 100*r.DataUtil)
	p("memory               %d reads, %d writes; L3 castouts %d",
		r.MemReads, r.MemWrites, r.L3Castouts)
	p("access latency       mean %.1f cycles, max %d", r.FillLatency.Mean(), r.FillLatency.Max())
	return b.String()
}
