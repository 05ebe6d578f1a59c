package sim_test

// Stream identity of the executor: every call lower.Execute makes into a
// simulator that takes all three channels, with its arguments, hashed into
// one digest over a fixed set of candidates. FuzzNest holds the stream to
// the per-instruction reference by what the simulator ends up with; this
// test holds it to itself, call for call, so a refactor of the executor that
// should not move the stream cannot move it unseen.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/bits"
	"os"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// nestStreamDigest is the digest of every channel call over the candidates
// of TestNestStreamDigest.
const nestStreamDigest = 0x427203b7e3233a80

// Call tags of the digest.
const (
	tagEvent byte = iota + 1
	tagLoop
	tagPrologueRun
	tagFetchResident
	tagFetchRun
	tagCounts
)

// digestSink passes every call on to a simulator and hashes it.
type digestSink struct {
	*sim.Machine
	h   hash.Hash64
	buf []byte
}

func (s *digestSink) tag(t byte) { s.buf = append(s.buf[:0], t) }

func (s *digestSink) u64(v uint64) { s.buf = binary.LittleEndian.AppendUint64(s.buf, v) }

func (s *digestSink) write() { s.h.Write(s.buf) }

func (s *digestSink) Consume(events []lower.Event) {
	for _, e := range events {
		s.tag(tagEvent)
		s.u64(e.PC)
		s.u64(e.Addr)
		s.u64(uint64(e.Size))
		s.buf = append(s.buf, byte(e.Class), e.Flags, byte(e.Kind))
		s.write()
	}
	s.Machine.Consume(events)
}

func (s *digestSink) run(t byte, run *lower.LoopRun) {
	s.tag(t)
	s.u64(uint64(run.Count))
	s.u64(uint64(run.Rows))
	s.u64(uint64(run.Planes))
	s.u64(uint64(len(run.Sites)))
	for _, st := range run.Sites {
		s.u64(st.Addr)
		s.u64(uint64(st.Step))
		s.u64(uint64(st.RowStep))
		s.u64(uint64(st.PlaneStep))
		s.u64(uint64(st.Size))
		s.u64(uint64(uint32(st.Lo)) | uint64(uint32(st.Hi))<<32)
		s.u64(uint64(uint32(st.RowLo)) | uint64(uint32(st.RowHi))<<32)
		w := byte(0)
		if st.Write {
			w = 1
		}
		s.buf = append(s.buf, w, st.Level)
	}
	s.write()
}

func (s *digestSink) ConsumeLoop(run *lower.LoopRun) {
	s.run(tagLoop, run)
	s.Machine.ConsumeLoop(run)
}

func (s *digestSink) ConsumePrologueRun(run *lower.LoopRun) {
	s.run(tagPrologueRun, run)
	s.Machine.ConsumePrologueRun(run)
}

func (s *digestSink) lines(lines []uint64) {
	s.u64(uint64(len(lines)))
	for _, l := range lines {
		s.u64(l)
	}
}

func (s *digestSink) FetchResident(lines []uint64) bool {
	ok := s.Machine.FetchResident(lines)
	s.tag(tagFetchResident)
	s.lines(lines)
	if ok {
		s.buf = append(s.buf, 1)
	} else {
		s.buf = append(s.buf, 0)
	}
	s.write()
	return ok
}

func (s *digestSink) ConsumeFetchRun(total uint64, lines, lastOrdinals []uint64) {
	s.tag(tagFetchRun)
	s.u64(total)
	s.lines(lines)
	s.lines(lastOrdinals)
	s.write()
	s.Machine.ConsumeFetchRun(total, lines, lastOrdinals)
}

func (s *digestSink) ConsumeCounts(counts *lower.Counts) {
	s.tag(tagCounts)
	for _, n := range counts.ByClass {
		s.u64(n)
	}
	s.u64(counts.LoopExits)
	s.u64(counts.GuardBranches)
	s.write()
	s.Machine.ConsumeCounts(counts)
}

// digestInputs returns the fuzz inputs the digests cover: the checked-in
// FuzzNest seeds, in name order, then a grid of seeds, workloads and
// generator kinds.
func digestInputs(t *testing.T) [][4]uint64 {
	t.Helper()
	entries, err := os.ReadDir(fuzzSeedDir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var ins [][4]uint64
	for _, name := range names {
		ins = append(ins, fuzzSeed(t, name))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for wl := uint64(0); wl <= 5; wl++ {
			for kind := uint64(0); kind < numKinds; kind++ {
				ins = append(ins, [4]uint64{seed, wl, 0, kind})
			}
		}
	}
	return ins
}

// TestNestStreamDigest runs each input's candidate on all three ISAs under
// the tight L1I geometry of checkNest, so fetch probes fail mid-run too,
// and pins the digest of every channel call.
func TestNestStreamDigest(t *testing.T) {
	h := fnv.New64a()
	for _, in := range digestInputs(t) {
		c := fuzzCandidate(t, in[0], uint(in[1]), uint(in[3]))
		s, err := schedule.Replay(c.factory().Op, c.steps)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, arch := range isa.Archs() {
			prog, err := lower.Build(s, isa.Lookup(arch))
			if err != nil {
				continue // a schedule the code generator rejects
			}
			caches := hw.Lookup(arch).Caches
			caches.L1I = cache.Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Assoc: 2}
			m, err := sim.New(arch, caches)
			if err != nil {
				t.Fatal(err)
			}
			lower.Execute(prog, &digestSink{Machine: m, h: h}, false)
		}
	}
	if got := h.Sum64(); got != nestStreamDigest {
		t.Fatalf("executor stream digest %#x, pinned %#x: the calls into the sink changed. "+
			"A change that moves the stream on purpose re-pins the digest here and records that in CHANGES.md",
			got, uint64(nestStreamDigest))
	}
}

// referenceStreamDigest is the digest of every event of the per-instruction
// reference over the candidates of TestReferenceStreamDigest.
const referenceStreamDigest = 0x5a5f72bce141b962

// refDigestSink is a plain sink that hashes every event it is sent, word
// by word. The reference encoding sends events only; a LoopRun or counts
// would move the digest too.
type refDigestSink struct{ h, events uint64 }

func (s *refDigestSink) mix(v uint64) { s.h = bits.RotateLeft64(s.h^v, 29) * 0x9e3779b97f4a7c15 }

func (s *refDigestSink) Consume(events []lower.Event) {
	for _, e := range events {
		s.mix(e.PC)
		s.mix(e.Addr)
		s.mix(uint64(e.Size) | uint64(e.Class)<<16 | uint64(e.Flags)<<24 | uint64(e.Kind)<<32)
	}
	s.events += uint64(len(events))
}

func (s *refDigestSink) ConsumeLoop(*lower.LoopRun) { s.mix(uint64(tagLoop)) }

func (s *refDigestSink) ConsumeCounts(*lower.Counts) { s.mix(uint64(tagCounts)) }

// TestReferenceStreamDigest pins every event lower.ExecutePerInstruction
// sends for the inputs of TestNestStreamDigest on all three ISAs. The
// reference encoding never takes the executor's nest path, so a change to
// that path must leave this digest as it is; FuzzNest's oracle is only as
// independent of the nest path as this stream is.
func TestReferenceStreamDigest(t *testing.T) {
	s := &refDigestSink{}
	for _, in := range digestInputs(t) {
		c := fuzzCandidate(t, in[0], uint(in[1]), uint(in[3]))
		sched, err := schedule.Replay(c.factory().Op, c.steps)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, arch := range isa.Archs() {
			prog, err := lower.Build(sched, isa.Lookup(arch))
			if err != nil {
				continue // a schedule the code generator rejects
			}
			lower.ExecutePerInstruction(prog, s, false)
			s.mix(s.events) // the end of one execution
		}
	}
	if s.h != referenceStreamDigest {
		t.Fatalf("reference stream digest %#x over %d events, pinned %#x: the per-instruction encoding changed",
			s.h, s.events, uint64(referenceStreamDigest))
	}
}
