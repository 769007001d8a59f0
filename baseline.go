package renaming

import (
	"fmt"

	"repro/internal/baseline"
)

// Uniform is the classical uniform-random-probing namer: repeated uniform
// probes into the whole namespace until one wins. Θ(log n) probes for the
// unluckiest caller; the baseline the paper's §4 improves upon.
type Uniform struct {
	*namer
}

// NewUniform builds a uniform-probing namer for at most n participants
// with namespace ceil((1+ε)n).
func NewUniform(n int, opts ...Option) (*Uniform, error) {
	o, err := collectOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := o.checkApplicable("uniform", optEpsilon); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, badConfig("uniform", "n", fmt.Sprint(n), "need n >= 1")
	}
	if err := checkNamespace("uniform", "n", n, (1+o.epsilon)*float64(n)); err != nil {
		return nil, err
	}
	alg, err := baseline.NewUniform(n, o.epsilon, 0)
	if err != nil {
		return nil, wrapConfig("uniform", err)
	}
	return &Uniform{namer: newNamer(alg, o)}, nil
}

// LinearScan is the trivial deterministic namer: scan names 0, 1, 2, ...
// until a TAS wins. Tight namespace (exactly n names) but Θ(n) worst-case
// probes per caller.
type LinearScan struct {
	*namer
}

// NewLinearScan builds a scanning namer for at most n participants.
func NewLinearScan(n int, opts ...Option) (*LinearScan, error) {
	o, err := collectOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := o.checkApplicable("linearscan"); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, badConfig("linearscan", "n", fmt.Sprint(n), "need n >= 1")
	}
	if err := checkNamespace("linearscan", "n", n, float64(n)); err != nil {
		return nil, err
	}
	alg, err := baseline.NewLinearScan(n)
	if err != nil {
		return nil, wrapConfig("linearscan", err)
	}
	return &LinearScan{namer: newNamer(alg, o)}, nil
}

var (
	_ Namer = (*Uniform)(nil)
	_ Namer = (*LinearScan)(nil)
)
