package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"cmpcache/internal/system"
)

// exported is the stable serialization of one Result. Wall-clock fields
// (Duration, Cached) are deliberately excluded: an export depends only
// on the jobs and the deterministic simulator, never on worker count or
// scheduling, so the same plan exports byte-identical files at any
// -workers value.
type exported struct {
	Job     Job
	Err     string          `json:",omitempty"`
	Results *system.Results `json:",omitempty"`
}

func export(results []Result) []exported {
	out := make([]exported, len(results))
	for i, r := range results {
		out[i] = exported{Job: r.Job, Results: r.Results}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
		}
	}
	return out
}

// WriteJSON serializes results as an indented JSON array, in job order.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(export(results))
}

// CSVHeader is the column set of WriteCSV.
var CSVHeader = []string{
	"workload", "mechanism", "outstanding", "wbht_entries", "snarf_entries",
	"reuse_entries", "hybrid_entries", "cycles", "l2_hit_rate",
	"l3_load_hit_rate", "wb_requests", "off_chip_accesses",
	"mean_fill_latency", "error",
}

// WriteCSV serializes one row per job, in job order, with the derived
// rates the paper's figures are built from.
func WriteCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	for _, r := range results {
		row := []string{
			r.Job.Input(),
			r.Job.Mechanism.String(),
			strconv.Itoa(r.Job.Outstanding),
			strconv.Itoa(r.Job.WBHTEntries),
			strconv.Itoa(r.Job.SnarfEntries),
			strconv.Itoa(r.Job.ReuseEntries),
			strconv.Itoa(r.Job.HybridEntries),
		}
		if res := r.Results; res != nil {
			row = append(row,
				strconv.FormatUint(res.Cycles, 10),
				formatFloat(res.L2HitRate()),
				formatFloat(res.L3LoadHitRate()),
				strconv.FormatUint(res.WBRequests, 10),
				strconv.FormatUint(res.OffChipAccesses(), 10),
				formatFloat(res.FillLatency.Mean()),
			)
		} else {
			row = append(row, "", "", "", "", "", "")
		}
		if r.Err != nil {
			row = append(row, r.Err.Error())
		} else {
			row = append(row, "")
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatFloat renders floats with the shortest exact representation so
// CSV exports round-trip and stay byte-stable.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
