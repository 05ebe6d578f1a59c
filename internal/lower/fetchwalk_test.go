package lower

import (
	"fmt"
	"reflect"
	"testing"
)

// fetchRunLog is a sink whose L1I holds every line: it records the
// arguments of each fetch run.
type fetchRunLog struct {
	CountingSink
	total       uint64
	lines, last []uint64
}

func (f *fetchRunLog) ConsumeFetchRun(total uint64, lines, lastOrdinals []uint64) {
	f.total, f.lines, f.last = total, append([]uint64(nil), lines...), append([]uint64(nil), lastOrdinals...)
}

// walkBox is one multi-line box as shipBox hands it to fetchRunBox.
type walkBox struct {
	blockBase, base, nIter uint64
	r                      int
	dims                   [maxNestRank]int
	code                   boxCode
}

// fetchRunResult is what one fetchRunBox call delivered and left behind.
type fetchRunResult struct {
	total       uint64
	lines, last []uint64
	lastLine    uint64
}

// ship runs box through c's fetchRunBox, entered from line entry.
func (b walkBox) ship(t *testing.T, c *execCtx, entry uint64) fetchRunResult {
	t.Helper()
	sink := c.fetch.(*fetchRunLog)
	c.lastLine = entry
	dims, code := b.dims, b.code
	if out := c.fetchRunBox(b.blockBase, b.base, b.nIter, b.r, &dims, &code); out != nestDone {
		t.Fatalf("box %+v: outcome %d", b, out)
	}
	return fetchRunResult{sink.total, sink.lines, sink.last, c.lastLine}
}

func newWalkCtx(ib uint64) *execCtx {
	sink := &fetchRunLog{}
	return &execCtx{em: emitter{sink: sink}, fetch: sink, ib: ib}
}

// TestFetchWalkReuse holds a reused fetch walk to a fresh one: a box that
// repeats the previous box's inputs, entered on or off its first line as
// that box was, must deliver the crossings a fresh walk derives, and one
// entered the other way must not reuse them. It covers both nest ranks
// that ship fetch runs, prologues of 0, 1 and 3 instructions, epilogues of
// a level's own overhead pair and of one folded level's too, and bodies
// spanning 2 to 8 I-lines.
func TestFetchWalkReuse(t *testing.T) {
	for _, ib := range []uint64{3, 4} {
		for r := 1; r <= 2; r++ {
			for _, pro := range []uint64{0, 1, 3} {
				for _, epi := range []uint64{2, 4} {
					for lines := 2; lines <= maxFetchRunLines; lines++ {
						walkReuse(t, ib, r, pro, epi, lines)
					}
				}
			}
		}
	}
}

// walkReuse runs TestFetchWalkReuse's case of a rank-r box with prologues
// of pro and epilogues of epi instructions per enclosing level and the
// fewest row instructions whose code spans the lines wanted.
func walkReuse(t *testing.T, ib uint64, r int, pro, epi uint64, lines int) {
	b := walkBox{blockBase: 0x4000 + 40, r: r, dims: [maxNestRank]int{3, 2, 1}}
	b.dims[r] = 4
	for s := 1; s <= r; s++ {
		b.code.pro[s], b.code.epi[s] = pro, epi
	}
	b.base = b.blockBase + uint64(r)*pro*ib
	// The fewest row instructions (a FMA and the loop pair at least) whose
	// box spans the lines wanted.
	first, span := b.blockBase&^63, 0
	for b.nIter = 3; span < lines; b.nIter++ {
		span = int(((b.base+(b.nIter+uint64(r)*epi-1)*ib)&^63-first)>>6) + 1
	}
	b.nIter--
	if span != lines {
		return
	}
	// Epilogues of more than the level's own pair carry folded levels'.
	name := fmt.Sprintf("ib%d/r%d/pro%d", ib, r, pro)
	if epi > 2 {
		name += fmt.Sprintf("/fold%d", (epi-2)/2)
	}
	t.Run(fmt.Sprintf("%s/lines%d", name, lines), func(t *testing.T) {
		c, reused := newWalkCtx(ib), 0
		// The entry line: the box's first line, or another.
		for _, entry := range []uint64{first, first, first - 64, first - 64, noLine, first, first + 64} {
			if c.walk.in.nIter == b.nIter && c.walk.in.enteredOnFirst == (entry == first) {
				reused++
			}
			got := b.ship(t, c, entry)
			if want := b.ship(t, newWalkCtx(ib), entry); !reflect.DeepEqual(got, want) {
				t.Fatalf("entry %#x: reused walk delivered %+v, a fresh one %+v", entry, got, want)
			}
		}
		if reused != 3 {
			t.Fatalf("%d boxes reused the walk before them, want 3", reused)
		}
	})
}
