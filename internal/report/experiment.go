// Package report renders experiment results as text tables — one AVF
// table per structure, then the EPF and protection tables, matching the
// content of the paper's three figures — or as one JSON document.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiment"
)

// WriteExperiment renders a full experiment result as text: one AVF
// table per structure (the figures' layout), then the EPF table and the
// protection what-if rows when the spec requested them.
func WriteExperiment(w io.Writer, res *experiment.Result) error {
	name := res.Spec.Name
	if name == "" {
		name = "experiment"
	}
	for _, tbl := range res.Tables {
		title := fmt.Sprintf("%s — %s AVF (%s, %d injections/campaign)",
			name, tbl.Structure, res.Spec.Estimator, res.Spec.Injections)
		if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title))); err != nil {
			return err
		}
		const hdr = "%-11s %-16s %8s %17s %8s %10s\n"
		const row = "%-11s %-16s %7.2f%% [%6.2f%%,%6.2f%%] %7.2f%% %9.2f%%\n"
		if _, err := fmt.Fprintf(w, hdr, "benchmark", "chip", "AVF-FI", "interval", "AVF-ACE", "occupancy"); err != nil {
			return err
		}
		for bi, bn := range res.Benchmarks {
			for ci, cn := range res.Chips {
				c := tbl.Cells[bi][ci]
				if _, err := fmt.Fprintf(w, row, bn, cn,
					100*c.AVFFI, 100*c.AVFFILo, 100*c.AVFFIHi, 100*c.AVFACE, 100*c.Occupancy); err != nil {
					return err
				}
			}
		}
		for ci, cn := range res.Chips {
			c := tbl.Averages[ci]
			if _, err := fmt.Fprintf(w, row, "average", cn,
				100*c.AVFFI, 0.0, 0.0, 100*c.AVFACE, 100*c.Occupancy); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if res.EPF != nil {
		title := name + " — Executions per Failure"
		if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title))); err != nil {
			return err
		}
		const hdr = "%-11s %-16s %12s %12s %10s %10s\n"
		if _, err := fmt.Fprintf(w, hdr, "benchmark", "chip", "EPF", "exec (s)", "AVF-RF", "AVF-LM"); err != nil {
			return err
		}
		for bi, bn := range res.Benchmarks {
			for ci, cn := range res.Chips {
				r := res.EPF.Rows[bi][ci]
				if _, err := fmt.Fprintf(w, "%-11s %-16s %12s %12.3e %9.2f%% %9.2f%%\n",
					bn, cn, epfString(r.EPF), r.Seconds, 100*r.RegAVF, 100*r.LocalAVF); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if len(res.Protection) > 0 {
		title := name + " — protection what-ifs"
		if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title))); err != nil {
			return err
		}
		const hdr = "%-14s %-11s %-16s %12s %10s %10s %9s %12s\n"
		if _, err := fmt.Fprintf(w, hdr, "config", "benchmark", "chip", "EPF", "SDC FIT", "DUE FIT", "slowdown", "extra bits"); err != nil {
			return err
		}
		for _, r := range res.Protection {
			if _, err := fmt.Fprintf(w, "%-14s %-11s %-16s %12s %10.1f %10.1f %8.1f%% %12d\n",
				r.Config, r.Benchmark, r.Chip, epfString(r.EPF), r.SDCFIT, r.DUEFIT, 100*r.Slowdown, r.ExtraBits); err != nil {
				return err
			}
		}
	}
	return nil
}

// epfString renders an EPF value, spelling out the zero-FIT infinity.
func epfString(epf float64) string {
	if epf == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.3e", epf)
}

// WriteExperimentJSON emits the experiment result as one indented JSON
// document — the same shape POST /v1/experiments returns in its final
// stream event.
func WriteExperimentJSON(w io.Writer, res *experiment.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
