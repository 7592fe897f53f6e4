package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// bounds maps each gated end-to-end metric to the share of the old median by
// which it may get worse. fail_ratio is not in BENCHMARK.json (a metric there
// must never be 0, and this one always should be): any rise is a regression.
func bounds(spec *benchSpec) map[string]float64 {
	b := map[string]float64{"fail_ratio": 0}
	for _, m := range spec.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b
}

// compareFiles prints, for every workload and end-to-end metric the two
// result files share, the change of the median against its bound. A metric
// whose quartile spread in either file exceeds the bound is unresolved: the
// runs cannot tell a change of that size from noise, so it is reported as
// neither held nor regressed. Returns 1 if any metric regressed.
func compareFiles(specPath, oldPath, newPath string) int {
	var spec benchSpec
	var a, b result
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {oldPath, &a}, {newPath, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			return fatal(err)
		}
	}
	bound := bounds(&spec)
	newer := map[string]*workloadResult{}
	for _, wr := range b.Workloads {
		newer[wr.Name] = wr
	}
	fmt.Printf("%-11s %-11s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "spread", "verdict")
	regressed := 0
	for _, wa := range a.Workloads {
		wb, ok := newer[wa.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.Metrics[m.name], wb.Metrics[m.name]
			lim, gated := bound[m.name]
			if wa.Name == "sim-shift" && m.name == "ohr" && a.Env.Seed == b.Env.Seed {
				lim = 0 // deterministic per seed: any loss is real
			}
			// change is a share of the old median (absolute when that is 0);
			// worse is the same change counted in the bad direction.
			change := sb.Median - sa.Median
			if sa.Median != 0 {
				change /= sa.Median
			}
			worse := change
			if m.better == "higher" {
				worse = -change
			}
			noise := spread(sa.Q1, sa.Median, sa.Q3)
			if s := spread(sb.Q1, sb.Median, sb.Q3); s > noise {
				noise = s
			}
			verdict := "held"
			switch {
			case !gated:
				verdict = "not gated"
			case noise > lim:
				verdict = "unresolved"
			case worse > lim:
				verdict = "REGRESSED"
				regressed++
			}
			limit := "-"
			if gated {
				limit = fmt.Sprintf("%.1f%%", 100*lim)
			}
			fmt.Printf("%-11s %-11s %14.4f %14.4f %+8.2f%% %7s %6.1f%%  %s\n",
				wa.Name, m.name, sa.Median, sb.Median, 100*change, limit, 100*noise, verdict)
		}
	}
	if regressed > 0 {
		fmt.Printf("%d metric(s) regressed beyond their bound\n", regressed)
		return 1
	}
	return 0
}
