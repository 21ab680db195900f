package main

import (
	"fmt"
	"math"
	"strings"

	"invarnetx/internal/core"
	"invarnetx/internal/server"
)

// The oracle compares daemon outputs with an in-process reference: a
// core.System restored from the same model store the daemon booted from.

// sameDiagnosis checks a daemon verdict against the reference diagnosis of
// the same window bit for bit: tuple, coverage, confidence and every ranked
// cause with its exact score.
func sameDiagnosis(got *server.Diagnosis, want *core.Diagnosis) error {
	if got == nil {
		return fmt.Errorf("no diagnosis in the report")
	}
	if g, w := got.Tuple, want.Tuple.String(); g != w {
		return fmt.Errorf("tuple %s, reference %s", g, w)
	}
	if math.Float64bits(got.Coverage) != math.Float64bits(want.Coverage) ||
		math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		return fmt.Errorf("coverage/confidence %v/%v, reference %v/%v", got.Coverage, got.Confidence, want.Coverage, want.Confidence)
	}
	if len(got.Causes) != len(want.Causes) {
		return fmt.Errorf("%d causes, reference %d", len(got.Causes), len(want.Causes))
	}
	for i, c := range got.Causes {
		w := want.Causes[i]
		if c.Problem != w.Problem || math.Float64bits(c.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("cause %d is %s@%v, reference %s@%v", i, c.Problem, c.Score, w.Problem, w.Score)
		}
	}
	return nil
}

// rankedCause is one entry of a ranking: problem and score.
type rankedCause struct {
	Problem string
	Score   float64
}

// prefixOfReference checks a verdict given while new problems were being
// labelled into the signature base. Labelling can only insert problems into
// the ranking, so the causes whose names the reference knows, in the
// daemon's order and with their exact scores, must be a prefix of the
// reference ranking. isNew tells labelled-since-boot problems apart.
func prefixOfReference(got, want []rankedCause, isNew func(string) bool) error {
	k := 0
	for _, c := range got {
		if isNew(c.Problem) {
			continue
		}
		if k >= len(want) {
			return fmt.Errorf("cause %s beyond the %d-cause reference ranking", c.Problem, len(want))
		}
		w := want[k]
		if c.Problem != w.Problem || math.Float64bits(c.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("known cause %d is %s@%v, reference %s@%v", k, c.Problem, c.Score, w.Problem, w.Score)
		}
		k++
	}
	// Without a labelled problem in the ranking nothing was displaced, so
	// the whole reference ranking must be there.
	if k == len(got) && k != len(want) {
		return fmt.Errorf("%d causes, reference ranks %d", k, len(want))
	}
	return nil
}

// isLabelProblem reports whether a problem name was labelled by the triage
// traffic (label-<n>) rather than loaded from the store.
func isLabelProblem(p string) bool { return strings.HasPrefix(p, "label-") }

func wireCauses(d *server.Diagnosis) []rankedCause {
	out := make([]rankedCause, len(d.Causes))
	for i, c := range d.Causes {
		out[i] = rankedCause{c.Problem, c.Score}
	}
	return out
}

func coreCauses(d *core.Diagnosis) []rankedCause {
	out := make([]rankedCause, len(d.Causes))
	for i, c := range d.Causes {
		out[i] = rankedCause{c.Problem, c.Score}
	}
	return out
}
