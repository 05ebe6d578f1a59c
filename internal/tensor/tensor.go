// Package tensor provides shapes, row-major strides, and buffers for the
// tensor-expression layer, plus the virtual-address layout used by the
// instruction-accurate simulator: every tensor is placed at a page-aligned
// base address in a flat virtual address space so that the lowered program
// can emit concrete load/store addresses for the cache hierarchy.
package tensor

import "fmt"

// ElemSize is the element width in bytes (float32 workloads, as in the
// paper's TVM ML kernels).
const ElemSize = 4

// PageAlign is the base-address alignment for tensor allocations.
const PageAlign = 4096

// Shape is the extent of each tensor dimension.
type Shape []int

// Size returns the number of elements (1 for a rank-0 shape).
func (s Shape) Size() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dim in shape %v", s))
		}
		n *= d
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// Equal reports whether two shapes match exactly.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Strides returns row-major element strides for the shape.
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s[i]
	}
	return st
}

// Tensor is a named, row-major float32 buffer with a virtual base address.
type Tensor struct {
	Name   string
	Shape  Shape
	Stride []int // element strides, row-major
	Base   uint64
	Data   []float32 // nil until Alloc (address-only simulation needs no data)
}

// New creates a tensor descriptor without allocating data.
func New(name string, shape Shape) *Tensor {
	return &Tensor{Name: name, Shape: shape.Clone(), Stride: shape.Strides()}
}

// Alloc materializes the data buffer (zeroed).
func (t *Tensor) Alloc() *Tensor {
	if t.Data == nil {
		t.Data = make([]float32, t.Shape.Size())
	}
	return t
}

// Bytes returns the buffer size in bytes.
func (t *Tensor) Bytes() uint64 { return uint64(t.Shape.Size()) * ElemSize }

// LinearIndex converts a multi-index to a flat element offset.
// It panics on rank mismatch; bounds are the caller's responsibility
// (the lowering layer guards out-of-range accesses before indexing).
func (t *Tensor) LinearIndex(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor %s: index rank %d vs shape rank %d", t.Name, len(idx), len(t.Shape)))
	}
	off := 0
	for i, v := range idx {
		off += v * t.Stride[i]
	}
	return off
}

// AddrOf returns the virtual byte address of the element at flat offset.
func (t *Tensor) AddrOf(flat int) uint64 { return t.Base + uint64(flat)*ElemSize }

// InBounds reports whether a multi-index is inside the shape.
func (t *Tensor) InBounds(idx []int) bool {
	if len(idx) != len(t.Shape) {
		return false
	}
	for i, v := range idx {
		if v < 0 || v >= t.Shape[i] {
			return false
		}
	}
	return true
}

// AddressSpace hands out page-aligned, non-overlapping base addresses.
// Region zero is reserved so that address 0 never aliases a tensor.
type AddressSpace struct {
	next uint64
}

// NewAddressSpace starts allocation at one page to keep address 0 unused.
func NewAddressSpace() *AddressSpace { return &AddressSpace{next: PageAlign} }

// Place assigns the tensor a base address and advances the allocator with a
// one-page guard gap between tensors.
func (a *AddressSpace) Place(t *Tensor) {
	t.Base = a.next
	sz := t.Bytes()
	sz = (sz + PageAlign - 1) / PageAlign * PageAlign
	a.next += sz + PageAlign
}

// Reserve returns a base address for a raw region of the given byte size
// (used for the spill stack and the code segment).
func (a *AddressSpace) Reserve(size uint64) uint64 {
	base := a.next
	size = (size + PageAlign - 1) / PageAlign * PageAlign
	a.next += size + PageAlign
	return base
}
