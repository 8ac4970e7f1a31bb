package main

import (
	"repro"
	"repro/internal/bench"
	"repro/internal/workload"
)

// p999_rel_err is the paper's accuracy claim: the mean relative error at
// ϕ=0.999 of the QLOVE operator's evaluations against the exact quantile
// of the same windows, as the repository's own accuracy experiments
// compute it (bench.Measure). Every workload measures it the same way,
// after timing stops, on one seed-derived NetMon stream: the engine's and
// the tier's answers are gated bit-identical to one Monitor, and one long
// stream averages over enough windows that the figure moves little between
// seeds (it repeats exactly for a seed).

const accuracyValues = 1 << 23

// measureError sets p999_rel_err.
func (r *run) measureError() error {
	vals := workload.Generate(workload.NewNetMon(r.seed), accuracyValues)
	pol, err := qlove.New(operatorConfig())
	if err != nil {
		return err
	}
	m, err := bench.Measure(pol, spec, phis, vals)
	if err != nil {
		return err
	}
	r.set("p999_rel_err", m.ValueErrPct[p999]/100, m.Evaluations)
	r.note("p999_rel_err: mean over %d evaluations of a %d-value NetMon stream (bench.Measure)", m.Evaluations, accuracyValues)
	return nil
}
