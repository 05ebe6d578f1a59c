package main

import (
	"time"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// coldPath walks candidates through the stages a cold candidate pays for
// besides the cache replay — workload build, schedule replay, lowering, the
// executor alone (into a lower.CountingSink) and the timing model — with a
// span around each call, and turns the spans into the stage metrics.
type coldPath struct {
	tr     *tracer
	cycles float64
	instr  uint64
}

func newColdPath() *coldPath {
	c := &coldPath{tr: newTracer()}
	c.tr.enabled.Store(true)
	return c
}

// run takes one candidate through the stages and returns its program.
func (c *coldPath) run(factory func() *te.Workload, steps []schedule.Step, arch isa.Arch) (*lower.Program, error) {
	t0 := time.Now()
	wl := factory()
	t1 := time.Now()
	s, err := schedule.Replay(wl.Op, steps)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	prog, err := lower.Build(s, isa.Lookup(arch))
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	var cs lower.CountingSink
	lower.Execute(prog, &cs, false)
	t4 := time.Now()
	m, err := hw.AcquireMachine(hw.Lookup(arch))
	if err != nil {
		return nil, err
	}
	lower.Execute(prog, m, false)
	c.cycles += m.Cycles()
	c.instr += cs.Total
	hw.ReleaseMachine(m)
	t5 := time.Now()
	for i, name := range []string{"te.build", "schedule.replay", "lower.build", "lower.execute", "hw.execute"} {
		marks := []time.Time{t0, t1, t2, t3, t4, t5}
		c.tr.record(name, "layers", "", marks[i], marks[i+1])
	}
	return prog, nil
}

// fill reports the mean host time of each stage per candidate.
func (c *coldPath) fill(vals map[string]float64) {
	ls := newSpanStats(c.tr.finish())
	vals["te.build_us_per_cand"] = num.Mean(ls.durUS["te.build"])
	vals["schedule.replay_us_per_cand"] = num.Mean(ls.durUS["schedule.replay"])
	vals["lower.build_us_per_cand"] = num.Mean(ls.durUS["lower.build"])
	vals["lower.execute_ms_per_cand"] = num.Mean(ls.durUS["lower.execute"]) / 1e3
	vals["hw.execute_ms_per_cand"] = num.Mean(ls.durUS["hw.execute"]) / 1e3
	if c.instr > 0 {
		vals["hw.cycles_per_instr"] = c.cycles / float64(c.instr)
	}
}

// simTotals adds up the simulated statistics of many candidates: the exact
// counts the simulator-side layer metrics are ratios of.
type simTotals struct {
	cands, instr, events, wallS float64
	// level maps a cache level's name to its misses and accesses.
	level map[string][2]float64
}

func (t *simTotals) add(st *sim.Stats) {
	if t.level == nil {
		t.level = map[string][2]float64{}
	}
	t.cands++
	t.instr += float64(st.Total)
	t.events += float64(st.SinkEvents)
	t.wallS += st.SimWallSeconds
	for _, lv := range st.Caches {
		agg := t.level[lv.Name]
		agg[0] += float64(lv.Stats.Misses[0] + lv.Stats.Misses[1])
		agg[1] += float64(lv.Stats.Accesses())
		t.level[lv.Name] = agg
	}
}

func (t *simTotals) fill(vals map[string]float64) {
	if t.cands == 0 {
		return
	}
	vals["sim.instr_per_cand"] = t.instr / t.cands
	vals["lower.events_per_instr"] = t.events / t.instr
	for name, key := range map[string]string{"L1D": "cache.l1d_miss_share", "L1I": "cache.l1i_miss_share", "L2": "cache.l2_miss_share"} {
		if agg := t.level[name]; agg[1] > 0 {
			vals[key] = agg[0] / agg[1]
		}
	}
}
