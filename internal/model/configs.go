package model

import (
	"fmt"

	"repro/internal/nn"
)

// The simulated model family. Names carry a "-sim" suffix to make explicit
// that these are scaled-down analogs of the paper's models (see DESIGN.md,
// "Substitutions"): the relative ordering of widths/depths matches the real
// family (Phi-3-Medium largest, Phi-3-Mini smallest), which is what the
// cross-model comparisons in Tables 1–4 exercise.
const (
	Phi3MedSim    = "phi3med-sim"
	Llama8BSim    = "llama8b-sim"
	Mistral7BSim  = "mistral7b-sim"
	Phi3MiniSim   = "phi3mini-sim"
	ReluFiedSim   = "relufied-sim" // TurboSparse-Mistral analog
	DefaultVocab  = 39             // len(data.Alphabet)
	DefaultMaxSeq = 96
)

// Scale selects the size regime: ScaleTest keeps unit tests and benches
// fast on one core; ScalePaper is used by cmd/dipbench for the full
// experiment suite.
type Scale int

const (
	// ScaleTest is the miniature regime for go test / go test -bench.
	ScaleTest Scale = iota
	// ScalePaper is the full regime for regenerating tables and figures.
	ScalePaper
)

// ParseScale maps a command-line scale name, "test" or "paper", to its
// Scale and reports whether the name is known.
func ParseScale(name string) (Scale, bool) {
	switch name {
	case "test":
		return ScaleTest, true
	case "paper":
		return ScalePaper, true
	}
	return ScalePaper, false
}

// ConfigFor returns the architecture for a named model analog at a scale.
func ConfigFor(name string, scale Scale) (Config, error) {
	type dims struct{ dim, layers, heads, kv, dff int }
	var d dims
	switch name {
	case Phi3MedSim:
		d = dims{64, 4, 4, 2, 192}
	case Llama8BSim:
		d = dims{48, 4, 4, 2, 144}
	case Mistral7BSim:
		d = dims{48, 3, 4, 2, 144}
	case Phi3MiniSim:
		d = dims{32, 3, 4, 2, 96}
	case ReluFiedSim:
		d = dims{48, 3, 4, 2, 144}
	default:
		return Config{}, fmt.Errorf("model: unknown analog %q", name)
	}
	if scale == ScaleTest {
		d.dim /= 2
		d.dff /= 2
		if d.layers > 2 {
			d.layers = 2
		}
		if d.dim%d.heads != 0 {
			d.heads = 2
		}
	}
	act := nn.ActSiLU
	if name == ReluFiedSim {
		act = nn.ActReLU
	}
	return Config{
		Name:    name,
		Vocab:   DefaultVocab,
		Dim:     d.dim,
		Layers:  d.layers,
		Heads:   d.heads,
		KVHeads: d.kv,
		DFF:     d.dff,
		MaxSeq:  DefaultMaxSeq,
		Act:     act,
	}, nil
}

// AnalogNames lists the four SwiGLU analogs in the order tables present
// them (Phi3Med, Phi3Mini, Llama8B, Mistral7B).
func AnalogNames() []string {
	return []string{Phi3MedSim, Phi3MiniSim, Llama8BSim, Mistral7BSim}
}
