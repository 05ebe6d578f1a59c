package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/features"
	"repro/internal/hw"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
)

var (
	fullCorpusSize  = corpusSize{Ansor: 20, AutoTVM: 10, SmallRows: true}
	smokeCorpusSize = corpusSize{Ansor: 1, AutoTVM: 1}
)

// simCorpus is the sim_corpus workload: one goroutine calling sim.Run over
// the seeded corpus, candidate after candidate.
type simCorpus struct {
	cfg  config
	tr   *tracer
	size corpusSize

	cands  []corpusCand
	progs  []*lower.Program
	caches []cache.HierarchyConfig
	// ref holds every candidate's statistics digest from the warm-up pass;
	// every later pass must reproduce it.
	ref   [][sha256.Size]byte
	last  []*sim.Stats
	wrong int
	// pinOK is set once the pinned seed's corpus matched testdata.
	pinOK bool
}

func newSimCorpus(cfg config, tr *tracer) *simCorpus {
	w := &simCorpus{cfg: cfg, tr: tr, size: fullCorpusSize}
	if cfg.Smoke {
		w.size = smokeCorpusSize
	}
	return w
}

// setup generates the corpus, lowers every candidate and runs one warm-up
// pass, which fills the simulator's machine pools and yields the reference
// digests.
func (w *simCorpus) setup() error {
	cands, err := genCorpus(w.cfg.Seed, w.size)
	if err != nil {
		return err
	}
	w.cands = cands
	w.progs = make([]*lower.Program, len(cands))
	w.caches = make([]cache.HierarchyConfig, len(cands))
	w.ref = make([][sha256.Size]byte, len(cands))
	w.last = make([]*sim.Stats, len(cands))
	for i := range cands {
		if w.progs[i], err = cands[i].build(); err != nil {
			return fmt.Errorf("corpus: %s: %w", cands[i].candID(), err)
		}
		w.caches[i] = hw.Lookup(cands[i].Arch).Caches
		st, err := sim.Run(w.progs[i], w.caches[i])
		if err != nil {
			return fmt.Errorf("corpus: %s: %w", cands[i].candID(), err)
		}
		w.ref[i] = statsDigest(st)
	}
	return nil
}

func (w *simCorpus) teardown() {}

func (w *simCorpus) pass(p int) (*passResult, error) {
	n := len(w.progs)
	res := &passResult{BatchMS: make([]float64, n), Cands: n, Attempted: n}
	traced := w.tr.on()
	trace := fmt.Sprintf("pass-%d", p)
	start := time.Now()
	prev := start
	for i, prog := range w.progs {
		st, err := sim.Run(prog, w.caches[i])
		now := time.Now()
		res.BatchMS[i] = float64(now.Sub(prev)) / 1e6
		if traced {
			w.tr.record("sim.run", trace, "", prev, now)
		}
		prev = now
		if err != nil {
			res.Failed++
			w.last[i] = nil
			continue
		}
		res.Instr += st.Total
		w.last[i] = st
	}
	res.WallS = prev.Sub(start).Seconds()
	w.tr.record("pass", trace, "", start, prev)
	for i, st := range w.last {
		if st != nil && statsDigest(st) != w.ref[i] {
			w.wrong++
		}
	}
	return res, nil
}

// corpusPin simulates the whole corpus for a seed and pins every candidate's
// canonical steps and statistics.
func corpusPin(seed uint64) (pinFile, error) {
	w := newSimCorpus(config{Seed: seed}, nil)
	if err := w.setup(); err != nil {
		return pinFile{}, err
	}
	return w.pin(), nil
}

func (w *simCorpus) pin() pinFile {
	full := make([][sha256.Size]byte, len(w.cands))
	for i := range w.cands {
		h := sha256.New()
		h.Write([]byte(w.cands[i].candID()))
		h.Write(w.ref[i][:])
		h.Sum(full[i][:0])
	}
	return newPin(full)
}

// verify compares a seeded one-in-eight sample against the per-instruction
// reference executor on a fresh machine and, on the pinned seed, every
// candidate against testdata/corpus_seed1.json.
func (w *simCorpus) verify() (int, error) {
	rng := num.NewRNG(w.cfg.Seed ^ 0x5eed)
	for i := rng.Intn(8); i < len(w.progs); i += 8 {
		m, err := sim.New(w.cands[i].Arch, w.caches[i])
		if err != nil {
			return 0, err
		}
		lower.ExecutePerInstruction(w.progs[i], m, false)
		if statsDigest(m.Stats()) != w.ref[i] {
			fmt.Fprintf(w.cfg.Log, "wrong: %s differs from the per-instruction reference\n", w.cands[i].candID())
			w.wrong++
		}
	}
	if w.cfg.Seed == pinSeed && !w.cfg.Smoke {
		want, err := loadPin(corpusPinJSON)
		if err != nil {
			return 0, err
		}
		if d := want.diff(w.pin()); d != "" {
			fmt.Fprintf(w.cfg.Log, "wrong: corpus differs from testdata/corpus_seed1.json: %s\n", d)
			w.wrong++
		} else {
			w.pinOK = true
		}
	}
	return w.wrong, nil
}

// accessSink is the benchmark's own lower.Sink: it counts how many data
// accesses arrive inside LoopRuns and how many as single events.
type accessSink struct {
	eventAccess  uint64
	spanAccesses uint64
}

func (s *accessSink) Consume(events []lower.Event) {
	for i := range events {
		if events[i].Kind == lower.EvData {
			s.eventAccess++
		}
	}
}

func (s *accessSink) ConsumeLoop(run *lower.LoopRun) {
	s.spanAccesses += uint64(run.Count * run.Rows * run.Planes * len(run.Sites))
}

func (s *accessSink) ConsumeCounts(*lower.Counts) {}

// layers walks the corpus once more, stage by stage, with a span around each
// call into a layer, and derives the layer metrics from those spans, from the
// traced passes and from the simulated statistics.
func (w *simCorpus) layers(in *layerInput, vals map[string]float64) error {
	n := float64(len(w.cands))
	cold := newColdPath()
	var sink accessSink
	var totals simTotals
	for i := range w.cands {
		c := &w.cands[i]
		prog, err := cold.run(c.factory, c.Steps, c.Arch)
		if err != nil {
			return err
		}
		lower.Execute(prog, &sink, false)
		if w.last[i] == nil {
			return fmt.Errorf("corpus: %s has no statistics", c.candID())
		}
		totals.add(w.last[i])
	}
	cold.fill(vals)
	totals.fill(vals)
	vals["lower.span_access_share"] = float64(sink.spanAccesses) / float64(sink.spanAccesses+sink.eventAccess)

	// Calls that cost nanoseconds are timed as one loop over the corpus.
	t0 := time.Now()
	for i := range w.cands {
		_ = schedule.Canonical(w.cands[i].Steps)
	}
	vals["schedule.canonical_ns_per_cand"] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	for _, st := range w.last {
		_ = features.FromStats(st)
	}
	vals["features.from_stats_ns_per_cand"] = float64(time.Since(t0).Nanoseconds()) / n

	m0 := mallocs()
	for i, prog := range w.progs {
		if _, err := sim.Run(prog, w.caches[i]); err != nil {
			return err
		}
	}
	vals["sim.allocs_per_cand"] = float64(mallocs()-m0) / n

	vals["sim.run_ms_per_cand"] = 1e3 / in.Est.CandPerS
	vals["sim.replay_ms_per_cand"] = vals["sim.run_ms_per_cand"] - vals["lower.execute_ms_per_cand"]
	vals["sim.span_share_of_pass"] = sum(in.Spans.durUS["sim.run"]) / sum(in.Spans.durUS["pass"])
	if vals["sim.span_share_of_pass"] < 0.9 {
		return fmt.Errorf("sim.run spans cover %.1f%% of a pass, want at least 90%%: the workload no longer isolates the simulator", 100*vals["sim.span_share_of_pass"])
	}
	if w.pinOK {
		vals["bench.snapshot_digest_ok"] = 1
	}
	return nil
}
