package te

import "fmt"

// Scale selects the workload sizing of the reproduction.
type Scale string

// Available scales.
const (
	// ScaleTiny is for unit tests (~10⁴ MACs per kernel).
	ScaleTiny Scale = "tiny"
	// ScaleSmall is the benchmark default (~10⁵–10⁶ MACs).
	ScaleSmall Scale = "small"
	// ScalePaper is the exact Table II sizing.
	ScalePaper Scale = "paper"
)

// ParseScale converts a string flag into a Scale.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case ScaleTiny, ScaleSmall, ScalePaper:
		return Scale(s), nil
	}
	return "", fmt.Errorf("te: unknown scale %q (want tiny|small|paper)", s)
}

// paperGroups are the five ResNet Conv2D+Bias+ReLU groups of Table II.
// Group 4 keeps the paper's W=24 (a likely typo for 14) for fidelity.
var paperGroups = []ConvParams{
	{N: 1, H: 224, W: 224, CO: 64, CI: 3, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3},
	{N: 1, H: 56, W: 56, CO: 64, CI: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{N: 1, H: 56, W: 56, CO: 128, CI: 64, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{N: 1, H: 28, W: 28, CO: 256, CI: 128, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{N: 1, H: 14, W: 24, CO: 512, CI: 256, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
}

// smallGroups shrink the paper shapes (spatial ÷2–÷4, channels ÷8) while
// keeping kernel sizes, strides and pads, so blocking/locality trade-offs
// survive at single-core benchmark cost.
var smallGroups = []ConvParams{
	{N: 1, H: 56, W: 56, CO: 8, CI: 3, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3},
	{N: 1, H: 28, W: 28, CO: 8, CI: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{N: 1, H: 28, W: 28, CO: 16, CI: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{N: 1, H: 14, W: 14, CO: 32, CI: 16, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{N: 1, H: 7, W: 12, CO: 64, CI: 32, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
}

// tinyGroups are minimal shapes that still exercise stride/pad variety.
var tinyGroups = []ConvParams{
	{N: 1, H: 12, W: 12, CO: 4, CI: 3, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{N: 1, H: 8, W: 8, CO: 4, CI: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{N: 1, H: 8, W: 8, CO: 8, CI: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{N: 1, H: 6, W: 6, CO: 8, CI: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{N: 1, H: 4, W: 6, CO: 16, CI: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
}

// ConvGroupParams returns the Table II parameter set at the given scale.
func ConvGroupParams(scale Scale) []ConvParams {
	switch scale {
	case ScalePaper:
		return append([]ConvParams(nil), paperGroups...)
	case ScaleSmall:
		return append([]ConvParams(nil), smallGroups...)
	case ScaleTiny:
		return append([]ConvParams(nil), tinyGroups...)
	}
	panic(fmt.Sprintf("te: unknown scale %q", scale))
}

// ConvGroup builds the Conv2D+Bias+ReLU workload of one Table II group.
// Each call returns fresh tensors, so concurrent simulations of the same
// group never share state.
func ConvGroup(scale Scale, group int) *Workload {
	params := ConvGroupParams(scale)
	if group < 0 || group >= len(params) {
		panic(fmt.Sprintf("te: group %d out of range [0,%d)", group, len(params)))
	}
	return Conv2dBiasRelu(params[group])
}

// NumConvGroups is the number of Table II groups.
const NumConvGroups = 5
