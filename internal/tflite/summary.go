package tflite

import (
	"fmt"
	"strings"

	"hdcedge/internal/tensor"
)

// OpCost summarizes one operator's static work.
type OpCost struct {
	Index  int
	Op     OpCode
	MACs   uint64 // multiply-accumulates (FULLY_CONNECTED)
	Elems  int    // output elements
	Params int    // constant bytes referenced
}

// AnalyzeOps returns the per-operator work profile of the model.
func (m *Model) AnalyzeOps() []OpCost {
	costs := make([]OpCost, len(m.Operators))
	for i, op := range m.Operators {
		c := OpCost{Index: i, Op: op.Op}
		for _, ti := range op.Outputs {
			c.Elems += m.Tensors[ti].Shape.Elems()
		}
		for _, ti := range op.Inputs {
			info := m.Tensors[ti]
			if info.Buffer != NoBuffer {
				c.Params += len(m.Buffers[info.Buffer])
			}
		}
		if op.Op == OpFullyConnected {
			in := m.Tensors[op.Inputs[0]]
			w := m.Tensors[op.Inputs[1]]
			if len(in.Shape) == 2 && len(w.Shape) == 2 {
				c.MACs = uint64(in.Shape[0]) * uint64(in.Shape[1]) * uint64(w.Shape[0])
			}
		}
		costs[i] = c
	}
	return costs
}

// TotalMACs sums the model's multiply-accumulate count per invocation.
func (m *Model) TotalMACs() uint64 {
	var total uint64
	for _, c := range m.AnalyzeOps() {
		total += c.MACs
	}
	return total
}

// ActivationBytes returns the total runtime-tensor footprint.
func (m *Model) ActivationBytes() int {
	total := 0
	for _, t := range m.Tensors {
		if t.Buffer == NoBuffer {
			total += t.Shape.Elems() * t.DType.Size()
		}
	}
	return total
}

// Summary renders a human-readable structural report: tensors, operator
// costs, parameter and activation footprints.
func (m *Model) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Model %q: %d tensors, %d operators\n", m.Name, len(m.Tensors), len(m.Operators))
	fmt.Fprintf(&sb, "  inputs:  %s\n", tensorList(m, m.Inputs))
	fmt.Fprintf(&sb, "  outputs: %s\n", tensorList(m, m.Outputs))
	for _, c := range m.AnalyzeOps() {
		fmt.Fprintf(&sb, "  op%-3d %-16v %12d MACs  %8d out elems  %10d param bytes\n",
			c.Index, c.Op, c.MACs, c.Elems, c.Params)
	}
	fmt.Fprintf(&sb, "  total: %d MACs/invoke, %d param bytes, %d activation bytes\n",
		m.TotalMACs(), m.ParamBytes(), m.ActivationBytes())
	fmt.Fprintf(&sb, "  tensors by type: %v, unused: %v\n", m.DTypeCounts(), m.Unused())
	return sb.String()
}

func tensorList(m *Model, idxs []int) string {
	parts := make([]string, len(idxs))
	for i, ti := range idxs {
		info := m.Tensors[ti]
		parts[i] = fmt.Sprintf("%s %v%v", info.Name, info.DType, info.Shape)
	}
	return strings.Join(parts, ", ")
}

// Unused reports tensors that no operator consumes and that are not model
// outputs — a lint for hand-built graphs.
func (m *Model) Unused() []int {
	used := make([]bool, len(m.Tensors))
	for _, op := range m.Operators {
		for _, ti := range op.Inputs {
			used[ti] = true
		}
	}
	for _, ti := range m.Outputs {
		used[ti] = true
	}
	var out []int
	for i := range m.Tensors {
		if !used[i] {
			out = append(out, i)
		}
	}
	return out
}

// DTypeCounts tallies tensors by element type — a quick check that a
// quantized model is actually integer-dominated.
func (m *Model) DTypeCounts() map[tensor.DType]int {
	counts := map[tensor.DType]int{}
	for _, t := range m.Tensors {
		counts[t.DType]++
	}
	return counts
}
