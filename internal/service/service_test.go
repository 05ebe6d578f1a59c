package service

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// mustServer builds a server or fails the test — the NewServer error path
// exists only for durable-store problems, which these configs don't hit.
func mustServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fixedHierarchy is a frozen geometry for the golden-key test, so the
// goldens pin the key derivation itself, independent of any future Table I
// profile adjustments (which are *supposed* to change real keys).
func fixedHierarchy() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		L1D: cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8},
		L1I: cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8},
		L2:  cache.Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 8},
	}
}

// TestCacheKeyGolden pins the cache-key derivation across processes and
// releases: these hex constants were recorded when the v1 key format was
// defined. A mismatch means persisted/shared caches would silently split or
// alias — bump the version tag inside CacheKey when changing the format.
func TestCacheKeyGolden(t *testing.T) {
	steps := []schedule.Step{
		{Kind: "split", Leaf: 1, Factor: 8},
		{Kind: "reorder", Perm: []int{0, 2, 1}},
		{Kind: "annotate", Leaf: 2, Ann: schedule.AnnVectorize},
	}
	golden := []struct {
		name string
		key  Key
		hash string
	}{
		{"convRISCV", CacheKey(isa.RISCV, fixedHierarchy(), ConvGroupSpec(te.ScaleSmall, 1), steps),
			"cd1fb3b7abb39f5775dc9ead5f4e20119147879afdf2c56d70e28ae3809fea8d"},
		{"convX86", CacheKey(isa.X86, fixedHierarchy(), ConvGroupSpec(te.ScaleSmall, 1), steps),
			"71dbe720758a84da1b2e06445fd85372bb2b087acf83f7443bd903df348c4a72"},
		{"matmulEmpty", CacheKey(isa.RISCV, fixedHierarchy(), MatMulSpec(8, 8, 8), nil),
			"26d7f62e853c5c00933483b1c029c8a093af6e76f3bcfe7a2c03ab6c214ecdb1"},
	}
	for _, g := range golden {
		if got := hex.EncodeToString(g.key[:]); got != g.hash {
			t.Errorf("%s: key %s, want golden %s", g.name, got, g.hash)
		}
	}
}

// TestCacheKeyCollisionFree checks key distinctness across every real
// (arch, Table II group, scale) combination and several step logs — the
// dimensions a shared production cache actually mixes.
func TestCacheKeyCollisionFree(t *testing.T) {
	stepLogs := [][]schedule.Step{
		nil,
		{{Kind: "split", Leaf: 0, Factor: 2}},
		{{Kind: "split", Leaf: 0, Factor: 4}},
		{{Kind: "split", Leaf: 1, Factor: 2}, {Kind: "annotate", Leaf: 2, Ann: schedule.AnnUnroll}},
	}
	seen := map[Key]string{}
	check := func(id string, k Key) {
		if prev, dup := seen[k]; dup {
			t.Fatalf("cache-key collision: %s and %s", prev, id)
		}
		seen[k] = id
	}
	for _, arch := range isa.Archs() {
		caches := hw.Lookup(arch).Caches
		for _, scale := range []te.Scale{te.ScaleTiny, te.ScaleSmall, te.ScalePaper} {
			for g := 0; g < te.NumConvGroups; g++ {
				for si, steps := range stepLogs {
					id := fmt.Sprintf("%s/%s/g%d/steps%d", arch, scale, g, si)
					check(id, CacheKey(arch, caches, ConvGroupSpec(scale, g), steps))
				}
			}
		}
		check(string(arch)+"/matmul", CacheKey(arch, caches, MatMulSpec(8, 8, 8), nil))
	}
	if len(seen) != len(isa.Archs())*(3*te.NumConvGroups*4+1) {
		t.Fatalf("unexpected key count %d", len(seen))
	}
}

// TestWorkloadSpecValidation rejects malformed specs before they reach a
// worker.
func TestWorkloadSpecValidation(t *testing.T) {
	bad := []WorkloadSpec{
		{Kind: "conv_group", Scale: "huge", Group: 0},
		{Kind: "conv_group", Scale: "small", Group: -1},
		{Kind: "conv_group", Scale: "small", Group: te.NumConvGroups},
		{Kind: "matmul", Dims: []int{8, 8}},
		{Kind: "matmul", Dims: []int{8, 0, 8}},
		{Kind: "winograd"},
	}
	for _, spec := range bad {
		if _, err := spec.Factory(); err == nil {
			t.Errorf("spec %+v must not validate", spec)
		}
	}
	good := []WorkloadSpec{
		ConvGroupSpec(te.ScaleTiny, 1),
		{Scale: "small", Group: 4}, // empty kind defaults to conv_group
		MatMulSpec(4, 4, 4),
	}
	for _, spec := range good {
		if _, err := spec.Factory(); err != nil {
			t.Errorf("spec %+v: %v", spec, err)
		}
	}
}

// tinyCandidates builds n distinct valid step logs for ConvGroup(tiny,
// group): candidate i reorders the 7-axis loop nest into its i-th
// permutation (5040 available), so logs are distinct by construction and
// exercise genuinely different access patterns.
func tinyCandidates(t testing.TB, group, n int) []Candidate {
	t.Helper()
	out := make([]Candidate, 0, n)
	for i := 0; i < n; i++ {
		s := schedule.New(te.ConvGroup(te.ScaleTiny, group).Op)
		perm := num.NthPerm(i, len(s.Leaves))
		order := make([]*schedule.IterVar, len(perm))
		for j, p := range perm {
			order[j] = s.Leaves[p]
		}
		if err := s.Reorder(order); err != nil {
			t.Fatal(err)
		}
		out = append(out, Candidate{Steps: s.Steps})
	}
	return out
}

// referenceStats simulates one candidate in-process, the way
// runner.SimulatorRunner would.
func referenceStats(t testing.TB, arch isa.Arch, group int, steps []schedule.Step) *sim.Stats {
	t.Helper()
	wl := te.ConvGroup(te.ScaleTiny, group)
	s, err := schedule.Replay(wl.Op, steps)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lower.Build(s, isa.Lookup(arch))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(p, hw.Lookup(arch).Caches)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// normalized strips the one non-deterministic field (host wall time) so the
// rest of the statistics can be compared bit for bit.
func normalized(st *sim.Stats) sim.Stats {
	c := *st
	c.SimWallSeconds = 0
	c.Caches = append([]sim.LevelStats(nil), st.Caches...)
	return c
}

// TestLocalBackendBitIdentical checks the in-process Backend returns stats
// bit-identical to direct simulation, and that re-submitting the same batch
// is served entirely from the cache with the same payload.
func TestLocalBackendBitIdentical(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 3})
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, 2),
		Candidates: tinyCandidates(t, 2, 6),
	}
	cold, err := srv.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range cold.Results {
		if res.Err != "" {
			t.Fatalf("candidate %d: %s", i, res.Err)
		}
		if res.CacheHit {
			t.Fatalf("candidate %d: cold run cannot hit", i)
		}
		want := referenceStats(t, isa.RISCV, 2, req.Candidates[i].Steps)
		if got, ref := normalized(res.Stats), normalized(want); !reflect.DeepEqual(got, ref) {
			t.Fatalf("candidate %d: service stats diverge from in-process:\n got %+v\nwant %+v", i, got, ref)
		}
	}
	warm, err := srv.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d: warm run must hit the cache", i)
		}
		if !reflect.DeepEqual(res.Stats, cold.Results[i].Stats) {
			t.Fatalf("candidate %d: cached stats diverge", i)
		}
	}
	st, _ := srv.Statusz(context.Background())
	if st.CacheMisses != 6 || st.CacheHits != 6 {
		t.Fatalf("statusz hits/misses = %d/%d, want 6/6", st.CacheHits, st.CacheMisses)
	}
	if st.CacheEntries != 6 || st.Candidates != 12 || st.Requests != 2 {
		t.Fatalf("statusz bookkeeping off: %+v", st)
	}
}

// TestWithinBatchDuplicatesSimulateOnce checks the singleflight layer: a
// batch repeating one candidate must cost one simulation.
func TestWithinBatchDuplicatesSimulateOnce(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.ARM}, WorkersPerArch: 4})
	one := tinyCandidates(t, 1, 1)[0]
	req := &SimulateRequest{
		Arch:       "arm",
		Workload:   ConvGroupSpec(te.ScaleTiny, 1),
		Candidates: []Candidate{one, one, one, one},
	}
	resp, err := srv.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, res := range resp.Results {
		if res.Err != "" {
			t.Fatalf("candidate %d: %s", i, res.Err)
		}
		if res.CacheHit {
			hits++
		}
		if !reflect.DeepEqual(res.Stats, resp.Results[0].Stats) {
			t.Fatalf("candidate %d: duplicate stats diverge", i)
		}
	}
	if hits != 3 {
		t.Fatalf("%d of 4 duplicates were hits, want 3", hits)
	}
	if sh := srv.shards[isa.ARM].simulated.Load(); sh != 1 {
		t.Fatalf("%d simulations for 4 identical candidates", sh)
	}
}

// TestDeterministicFailuresAreCached checks broken candidates fail fast the
// second time: the error is content-addressed like any result.
func TestDeterministicFailuresAreCached(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}})
	req := &SimulateRequest{
		Arch:     "riscv",
		Workload: ConvGroupSpec(te.ScaleTiny, 0),
		Candidates: []Candidate{
			{Steps: []schedule.Step{{Kind: "split", Leaf: 99, Factor: 2}}},
		},
	}
	first, err := srv.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Results[0].Err == "" || first.Results[0].CacheHit {
		t.Fatalf("want cold deterministic failure, got %+v", first.Results[0])
	}
	second, err := srv.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Results[0].Err != first.Results[0].Err || !second.Results[0].CacheHit {
		t.Fatalf("want cached failure, got %+v", second.Results[0])
	}
}

// TestSimulateRejectsBadRequests checks whole-batch validation.
func TestSimulateRejectsBadRequests(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.X86}})
	cases := []SimulateRequest{
		{Arch: "sparc", Workload: ConvGroupSpec(te.ScaleTiny, 0)},
		{Arch: "riscv", Workload: ConvGroupSpec(te.ScaleTiny, 0)}, // not served
		{Arch: "x86", Workload: WorkloadSpec{Kind: "winograd"}},
	}
	for i, req := range cases {
		if _, err := srv.Simulate(context.Background(), &req); err == nil {
			t.Errorf("request %d must fail", i)
		}
	}
}

// TestSimulateCancellation checks a dead context aborts the batch instead of
// leaking work into the queue.
func TestSimulateCancellation(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := srv.Simulate(ctx, &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, 1),
		Candidates: tinyCandidates(t, 1, 8),
	})
	if err == nil || !strings.Contains(err.Error(), "batch canceled") {
		t.Fatalf("err = %v, want batch canceled", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("a canceled batch must classify as retryable, got %v", err)
	}
	st, _ := srv.Statusz(context.Background())
	for _, sh := range st.Shards {
		if sh.Queued != 0 || sh.Running != 0 {
			t.Fatalf("cancelled batch left work behind: %+v", sh)
		}
	}
}

// TestConcurrentBatchSubmission hammers one server from many clients with
// overlapping batches (run under -race in CI): every response must carry
// stats bit-identical to the in-process reference regardless of which
// goroutine's flight computed them.
func TestConcurrentBatchSubmission(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 4})
	const group = 3
	cands := tinyCandidates(t, group, 10)
	refs := make([]sim.Stats, len(cands))
	for i, c := range cands {
		refs[i] = normalized(referenceStats(t, isa.RISCV, group, c.Steps))
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each client rotates the shared candidate list so batches
			// overlap at shifted offsets — the cross-client re-proposal
			// pattern the cache exists for.
			idx := make([]int, len(cands))
			for i := range idx {
				idx[i] = (i + c) % len(cands)
			}
			for round := 0; round < 3; round++ {
				req := &SimulateRequest{Arch: "riscv", Workload: ConvGroupSpec(te.ScaleTiny, group)}
				for _, i := range idx {
					req.Candidates = append(req.Candidates, cands[i])
				}
				resp, err := srv.Simulate(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				for j, i := range idx {
					if resp.Results[j].Err != "" {
						errs <- fmt.Errorf("client %d: candidate %d: %s", c, i, resp.Results[j].Err)
						return
					}
					if got := normalized(resp.Results[j].Stats); !reflect.DeepEqual(got, refs[i]) {
						errs <- fmt.Errorf("client %d: candidate %d: stats diverge", c, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, _ := srv.Statusz(context.Background())
	if st.CacheMisses != uint64(len(cands)) {
		t.Fatalf("%d misses across all clients, want one per unique candidate (%d)",
			st.CacheMisses, len(cands))
	}
	wantServed := uint64(clients * 3 * len(cands))
	if st.CacheHits+st.CacheMisses != wantServed {
		t.Fatalf("served %d candidates, want %d", st.CacheHits+st.CacheMisses, wantServed)
	}
}

// TestCacheEviction checks the capacity bound holds.
func TestCacheEviction(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, MaxResidentResults: 4})
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, 1),
		Candidates: tinyCandidates(t, 1, 9),
	}
	if _, err := srv.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if n := srv.cache.len(); n > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", n)
	}
}

// TestHTTPRoundTrip drives the full wire path: JSON encode, HTTP server,
// decode — stats must survive bit-identically, statusz must be served, and
// protocol misuse must map to HTTP errors.
func TestHTTPRoundTrip(t *testing.T) {
	srv := mustServer(t, Config{Archs: []isa.Arch{isa.ARM}, WorkersPerArch: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL)

	req := &SimulateRequest{
		Arch:       "arm",
		Workload:   ConvGroupSpec(te.ScaleTiny, 4),
		Candidates: tinyCandidates(t, 4, 4),
	}
	resp, err := cl.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Err != "" {
			t.Fatalf("candidate %d: %s", i, res.Err)
		}
		want := referenceStats(t, isa.ARM, 4, req.Candidates[i].Steps)
		if got, ref := normalized(res.Stats), normalized(want); !reflect.DeepEqual(got, ref) {
			t.Fatalf("candidate %d: stats did not survive the wire:\n got %+v\nwant %+v", i, got, ref)
		}
	}
	st, err := cl.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 4 || len(st.Shards) != 1 || st.Shards[0].Arch != "arm" {
		t.Fatalf("statusz over HTTP off: %+v", st)
	}

	// Protocol misuse.
	if _, err := cl.Simulate(context.Background(), &SimulateRequest{Arch: "sparc"}); err == nil {
		t.Fatal("unknown arch must surface as an HTTP error")
	}
	getResp, err := http.Get(hs.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulate = %d, want 405", getResp.StatusCode)
	}
	postResp, err := http.Post(hs.URL+"/v1/simulate", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", postResp.StatusCode)
	}
}
