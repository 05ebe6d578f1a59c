package lower

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/num"
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
	in := walkInputs{blockBase: b.blockBase, base: b.base, nIter: b.nIter, r: b.r, dims: b.dims, code: b.code}
	if out := c.fetchRunBox(&in); out != nestDone {
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
			if w := c.walks[c.lastWalk].in; w.nIter == b.nIter && w.enteredOnFirst == (entry == first) {
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

// bruteWalk visits every instruction of box in, entered from line entry,
// in execution order and records the fetch-line crossings as fetchWalk
// keeps them.
func bruteWalk(in walkInputs, entry, ib uint64) fetchRunResult {
	res := fetchRunResult{lastLine: entry}
	first := in.blockBase &^ 63
	last := map[uint64]uint64{}
	top := first
	span := func(addr, n uint64) {
		for k := uint64(0); k < n; k++ {
			if line := (addr + k*ib) &^ 63; line != res.lastLine {
				res.total++
				last[line] = res.total
				res.lastLine = line
				top = max(top, line)
			}
		}
	}
	var proBase [maxNestRank]uint64
	for s, at := in.r, in.blockBase; s >= 1; s-- {
		proBase[s] = at
		at += in.code.pro[s] * ib
	}
	// level runs every iteration of rank s; it returns the row it ended on.
	var level func(s, row int) int
	level = func(s, row int) int {
		for i := 0; i < in.dims[s]; i++ {
			if s == 0 {
				span(in.base, in.iterLen(row, i))
				continue
			}
			if s == 1 {
				row = i
			}
			span(proBase[s], in.code.pro[s])
			row = level(s-1, row)
			at := in.base + in.iterLen(row, in.dims[0]-1)*ib
			for t := 1; t < s; t++ {
				at += in.code.epi[t] * ib
			}
			span(at, in.code.epi[s])
		}
		return row
	}
	level(in.r, 0)
	for line := first; line <= top; line += 64 {
		res.lines = append(res.lines, line)
		res.last = append(res.last, last[line])
	}
	return res
}

// TestFetchWalkWindows holds the walk of windowed boxes, whose windowed
// loads make their iterations one instruction longer, to a walk of every
// instruction: random boxes of both ranks that ship fetch runs, with one
// or two windows along the row, over the rows or both, entered on and off
// their first line. Every box goes through one context per instruction
// size, and half the time a recent box goes through again, so walks are
// also recalled from the spares and retired from them.
func TestFetchWalkWindows(t *testing.T) {
	type shipped struct {
		in    walkInputs
		entry uint64
		want  fetchRunResult
	}
	ctxs := map[uint64]*execCtx{3: newWalkCtx(3), 4: newWalkCtx(4)}
	recent := map[uint64][]shipped{}
	ship := func(ib uint64, b shipped) bool {
		c := ctxs[ib]
		c.lastLine = b.entry
		in := b.in
		if out := c.fetchRunBox(&in); out != nestDone {
			return false // the bound on the longest iteration left it out
		}
		sink := c.fetch.(*fetchRunLog)
		if got := (fetchRunResult{sink.total, sink.lines, sink.last, c.lastLine}); !reflect.DeepEqual(got, b.want) {
			t.Fatalf("box %+v entered from %#x: walk %+v, every instruction %+v", b.in, b.entry, got, b.want)
		}
		return true
	}
	rng := num.NewRNG(49)
	walked := 0
	for trial := 0; trial < 3000; trial++ {
		ib := uint64(3 + rng.Intn(2))
		if old := recent[ib]; len(old) > 0 && rng.Intn(2) == 0 {
			ship(ib, old[rng.Intn(len(old))])
		}
		in := walkInputs{blockBase: 0x4000 + uint64(rng.Intn(64)), r: 1 + rng.Intn(2)}
		for s := range in.dims {
			in.dims[s] = 1
		}
		for s := 0; s <= in.r; s++ {
			in.dims[s] = 1 + rng.Intn(6)
		}
		for s := 1; s <= in.r; s++ {
			in.code.pro[s], in.code.epi[s] = uint64(rng.Intn(3)), uint64(2+2*rng.Intn(2))
		}
		in.base = in.blockBase + (in.code.pro[1]+in.code.pro[2])*ib
		in.nIter = uint64(3 + rng.Intn(24))
		for w := 0; w < 1+rng.Intn(maxWindows); w++ {
			win := window{0, in.dims[0], 0, in.dims[1]}
			if rng.Intn(3) != 0 {
				win.lo = rng.Intn(in.dims[0])
				win.hi = win.lo + 1 + rng.Intn(in.dims[0]-win.lo)
			}
			if rng.Intn(3) != 0 {
				win.rowLo = rng.Intn(in.dims[1])
				win.rowHi = win.rowLo + 1 + rng.Intn(in.dims[1]-win.rowLo)
			}
			in.wins[w] = win
		}
		first := in.blockBase &^ 63
		entry := []uint64{first, first - 64, noLine}[rng.Intn(3)]
		b := shipped{in, entry, bruteWalk(in, entry, ib)}
		if len(b.want.lines) > maxFetchRunLines || !ship(ib, b) {
			continue
		}
		walked++
		if recent[ib] = append(recent[ib], b); len(recent[ib]) > 12 {
			recent[ib] = recent[ib][1:]
		}
	}
	if walked < 1000 {
		t.Fatalf("only %d boxes walked", walked)
	}
}
