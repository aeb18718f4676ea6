package experiments

import (
	"fmt"

	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// Chaos measures the serving engine's robustness machinery under seeded
// fault injection: the same open-loop Poisson trace is replayed across a
// grid of fault rate × recovery policy × arbitration × preemptor, with a
// faults.Mix plan (transient step faults, grant revocations, request
// cancellations, capacity dips) driving the chaos and retry/backoff plus
// admission-control shedding driving the recovery. Every cell runs on the
// simulated tick clock with stateless per-(seed, tick, slot) fault draws,
// so the whole grid is bit-identical for a fixed -seed, any worker count,
// either decode path. The companion chaos-recovery table summarizes the
// headline comparison per rate: SLO attainment with recovery on versus a
// no-recovery baseline (retry budget 1, no shedding) on the identical
// trace and fault schedule.
func Chaos(l *Lab) ([]*Table, error) {
	const slots = 2
	g := newServingGrid(l, "chaos", 8, 12, 6, slots)
	scheme := sparsity.NewDIP(0.5)

	faultRates := []float64{0.02, 0.05}
	if l.ServeFaults > 0 {
		faultRates = []float64{l.ServeFaults}
	}
	retryAttempts := l.ServeRetry
	if retryAttempts <= 0 {
		retryAttempts = 3
	}
	shedBudget := l.ServeShed
	if shedBudget <= 0 {
		shedBudget = 2 * slots
	}
	arbs := []serving.ArbPolicy{serving.ArbFairShare, serving.ArbExclusive}
	preempts := []serving.Preemptor{serving.NoPreempt(), serving.DeadlinePreempt()}
	if l.ServeSmoke {
		arbs = []serving.ArbPolicy{serving.ArbFairShare}
	}
	if l.ServeArb != "" {
		a, err := serving.ParseArbPolicy(l.ServeArb)
		if err != nil {
			return nil, err
		}
		arbs = []serving.ArbPolicy{a}
	}
	if l.ServePreempt != "" {
		p, err := serving.ParsePreemptor(l.ServePreempt)
		if err != nil {
			return nil, err
		}
		preempts = []serving.Preemptor{p}
	}

	runCell := func(frate float64, recover bool, pre serving.Preemptor, arb serving.ArbPolicy) (*serving.Report, error) {
		plan, err := faults.Mix(frate, l.ServeSeed+2)
		if err != nil {
			return nil, err
		}
		cfg := g.config(arb, serving.EDF(), slots)
		cfg.Preempt, cfg.Faults, cfg.Retry = pre, plan, faults.RetryPolicy{MaxAttempts: 1}
		mode := "none"
		if recover {
			cfg.Retry = faults.RetryPolicy{MaxAttempts: retryAttempts}
			cfg.ShedQueueBudget = shedBudget
			cfg.Degrade = true
			mode = "recovery"
		}
		cell := fmt.Sprintf("%v-%s-%s-%s", frate, mode, pre.Name(), arb)
		rep, _, err := gridCell(g, "on", cell, func(bool) (*serving.Report, []obs.Event, error) {
			w, err := g.poisson(g.requests(scheme, func(i int) string { return fmt.Sprintf("c%02d", i) }), slots)
			if err != nil {
				return nil, nil, err
			}
			return g.runEngine(cell, cfg, w)
		}, nil)
		return rep, err
	}

	out := &Table{
		ID:    "chaos",
		Title: "Fault injection grid: seeded chaos (step faults, revocations, cancels, capacity dips) vs retry/backoff + load shedding",
		Columns: []string{"fault_rate", "recovery", "preempt", "policy", "sessions",
			"sim_tok_s", "goodput", "faults", "retries", "failed", "shed",
			"slo_attain", "mean_recover_t", "dip_slot_t"},
	}
	type ratePair struct {
		base, rec  float64 // summed attainment across cells
		cells      int
		recRetries int
		recGoodput float64
	}
	pairs := make([]ratePair, len(faultRates))
	for ri, frate := range faultRates {
		for _, recover := range []bool{false, true} {
			for _, pre := range preempts {
				for _, arb := range arbs {
					rep, err := runCell(frate, recover, pre, arb)
					if err != nil {
						return nil, err
					}
					mode := "none"
					if recover {
						mode = "retry+shed"
					}
					nFaults := rep.StepFaults + rep.Revocations + rep.Cancellations
					out.AddRow(frate, mode, pre.Name(), arb.String(), len(rep.Sessions),
						rep.SimTokS, rep.Goodput, nFaults, rep.Retries, rep.Failed, rep.Shed,
						rep.SLOAttainRate, rep.MeanRecoverTicks, rep.DipSlotTicks)
					if recover {
						pairs[ri].rec += rep.SLOAttainRate
						pairs[ri].recRetries += rep.Retries
						pairs[ri].recGoodput += rep.Goodput
					} else {
						pairs[ri].base += rep.SLOAttainRate
						pairs[ri].cells++
					}
				}
			}
		}
	}
	out.Notes = append(out.Notes,
		"fault draws are pure functions of (seed, tick, slot): every cell is bit-identical for a fixed -seed, any worker count, fused or per-session decode",
		"recovery=none runs the identical fault schedule with a single attempt and no shedding; retry+shed adds seeded exponential backoff and admission-control load shedding with graceful degradation",
		"goodput counts only tokens of sessions that completed OK — (sim_tok_s − goodput) prices retried prefixes and failed/cancelled work",
		"mean_recover_t is the mean ticks from a fault-triggered suspension to the session decoding again; dip_slot_t is slot-ticks of capacity lost to dips",
	)
	summary := &Table{
		ID:    "chaos-recovery",
		Title: "Recovery headline: mean SLO attainment with retry+shedding vs the no-recovery baseline, identical fault schedule",
		Columns: []string{"fault_rate", "cells", "attain_base", "attain_recovery",
			"goodput_recovery", "retries"},
		Notes: []string{
			"attainment is averaged over the preempt × arbitration cells at each rate; both columns replay the same seeded trace and fault schedule",
		},
	}
	for ri, frate := range faultRates {
		n := float64(pairs[ri].cells)
		summary.AddRow(frate, pairs[ri].cells, pairs[ri].base/n, pairs[ri].rec/n,
			pairs[ri].recGoodput/n, pairs[ri].recRetries)
	}
	return []*Table{out, summary}, nil
}
