package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/serving"
)

// digest hashes every tick-clocked field of a run's report. The host-clock
// Wall annotations are zeroed, and the observer snapshot and merged event
// counts are dropped, because only a traced run carries them; everything
// else must be identical across repetitions, worker counts, decode paths
// and traced or untraced runs.
func digest(o *outcome) (string, error) {
	var v any
	if o.eng != nil {
		r := *o.eng
		r.Wall, r.Obs = serving.WallClock{}, nil
		v = &r
	} else {
		r := *o.clu
		r.Wall, r.Counts = serving.WallClock{}, nil
		r.Nodes = append([]cluster.NodeReport(nil), r.Nodes...)
		for i := range r.Nodes {
			nr := *r.Nodes[i].Report
			nr.Wall, nr.Obs = serving.WallClock{}, nil
			r.Nodes[i].Report = &nr
		}
		v = &r
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// conserve checks the run's books: every submitted request ends in exactly
// one outcome, per-session Decoded sums to TotalTokens, and GoodTokens never
// exceeds TotalTokens.
func conserve(o *outcome) error {
	seen := make([]int, o.submitted)
	decoded := 0
	for _, sm := range o.sessions() {
		if sm.Index < 0 || sm.Index >= o.submitted {
			return fmt.Errorf("conservation: session %q has index %d outside %d submitted requests", sm.ID, sm.Index, o.submitted)
		}
		seen[sm.Index]++
		switch sm.Outcome {
		case serving.OutcomeOK, serving.OutcomeFailed, serving.OutcomeCancelled, serving.OutcomeShed:
		default:
			return fmt.Errorf("conservation: session %q ended in unknown outcome %q", sm.ID, sm.Outcome)
		}
		decoded += sm.Decoded
	}
	for i, n := range seen {
		if n != 1 {
			return fmt.Errorf("conservation: request %d has %d outcomes, want exactly 1", i, n)
		}
	}
	total, good := o.tokens()
	if decoded != total {
		return fmt.Errorf("conservation: per-session Decoded sums to %d, report TotalTokens is %d", decoded, total)
	}
	if good > total {
		return fmt.Errorf("conservation: GoodTokens %d exceeds TotalTokens %d", good, total)
	}
	return nil
}

// reconcile runs the report's observer reconciliation (traced runs only).
func reconcile(o *outcome) error {
	if o.eng != nil {
		return o.eng.ReconcileObs()
	}
	return o.clu.ReconcileObs()
}

// tokens returns the run's decoded and good token totals.
func (o *outcome) tokens() (total, good int) {
	if o.eng != nil {
		return o.eng.TotalTokens, o.eng.GoodTokens
	}
	return o.clu.TotalTokens, o.clu.GoodTokens
}
