package lower_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/schedule"
	"repro/internal/te"
)

// TestCheckedDimsSound holds Build's pruning of padding checks to what makes
// it exact: every dimension it left out of a load's check is inside the
// tensor wherever the guards pass. The programs are the differential cases
// and every tiny conv group under the default schedule and under one whose
// input-channel loop is split by a factor that does not divide it, so that
// the channel dimension the check drops is inside only where that split's
// guard passes.
func TestCheckedDimsSound(t *testing.T) {
	type program struct {
		name string
		s    *schedule.Schedule
	}
	var progs []program
	for _, tc := range diffCases() {
		_, s := tc.build(t)
		progs = append(progs, program{tc.name, s})
	}
	for g := 0; g < te.NumConvGroups; g++ {
		progs = append(progs, program{fmt.Sprintf("conv%d-default", g), schedule.New(te.ConvGroup(te.ScaleTiny, g).Op)})
		s := schedule.New(te.ConvGroup(te.ScaleTiny, g).Op)
		ic := s.Leaves[4] // n, oc, oh, ow, then the input channel
		if _, _, err := s.Split(ic, ic.Extent-1); err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{fmt.Sprintf("conv%d-split-tail", g), s})
	}
	for _, pr := range progs {
		p, err := lower.Build(pr.s, isa.Lookup(isa.RISCV))
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		escape, padded := lower.DroppedDimEscape(p)
		if escape != "" {
			t.Errorf("%s: a dimension left out of the padding check leaves its tensor: %s", pr.name, escape)
		}
		if strings.HasPrefix(pr.name, "conv") && padded == 0 {
			t.Errorf("%s: no padded load had a dimension left out of its check", pr.name)
		}
	}
}
