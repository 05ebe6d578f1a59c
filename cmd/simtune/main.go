// Command simtune tunes one Conv2D+Bias+ReLU group end to end, either the
// classic way (native measurement on the modelled target board) or the
// paper's way (parallel instruction-accurate simulators plus a trained score
// predictor), and prints the resulting best implementations. It can also run
// as the shared batch simulation server other tuning clients connect to, or
// as a consistent-hash router sharding the cache key space across several
// such servers.
//
// Examples:
//
//	simtune -arch riscv -group 1 -trials 64 -runner native
//	simtune -arch riscv -group 3 -trials 200 -runner sim -predictor XGBoost
//	simtune serve -addr :8070 -workers 8
//	simtune route -addr :8060 -nodes http://sim-0:8070,http://sim-1:8070,http://sim-2:8070
//	simtune route -addr :8060 -nodes a=http://10.0.0.5:8070,b=http://10.0.0.6:8070
//	simtune -arch riscv -group 3 -trials 200 -runner sim -server http://tuner-farm:8060
//	simtune loadgen -seed 1 -steps 0.5,1,2 -report saturation.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ansor"
	"repro/internal/autotvm"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/num"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/te"

	simtune "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simtune:", err)
		os.Exit(1)
	}
}

// serveConfig declares `simtune serve`'s flags on fs and parses args into the
// listen address and the server configuration they ask for.
func serveConfig(fs *flag.FlagSet, args []string) (addr string, cfg service.Config, err error) {
	fs.StringVar(&addr, "addr", ":8070", "listen address")
	archsFlag := fs.String("archs", "x86,arm,riscv", "comma-separated served architectures")
	fs.IntVar(&cfg.WorkersPerArch, "workers", 4, "simulator instances per architecture shard")
	// Config's default spelled out, so the banner prints the bound in force.
	fs.IntVar(&cfg.MaxResidentResults, "max-resident", 1<<18, "ARC bound on results held in RAM; evicted results stay servable from -cache-dir")
	fs.StringVar(&cfg.CacheDir, "cache-dir", "", "durable result store directory; a restarted server recovers its computed corpus from the segment log here (empty = memory only)")
	fs.Int64Var(&cfg.CacheSegmentBytes, "cache-seg-bytes", 0, "store segment rotation size in bytes (default 64 MB)")
	fs.IntVar(&cfg.MaxQueuedCandidates, "max-queued", 0, "admission bound: candidates held (queued+running) before new batches get 429 + Retry-After (default 65536)")
	tenantWeights := fs.String("tenant-weights", "", "fair-share weights for the admission gate, e.g. 'ci=3,adhoc=1' (unlisted tenants weigh 1)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 0, "graceful-drain budget after SIGINT/SIGTERM: how long in-flight batches may finish before hard cancel (default 30s)")
	fs.DurationVar(&cfg.SlowBatchThreshold, "slow-batch", 0, "log a structured slow-batch line for batches slower than this (0 = off)")
	fs.BoolVar(&cfg.EnablePprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return "", cfg, err
	}
	for _, a := range strings.Split(*archsFlag, ",") {
		arch, err := isa.ParseArch(strings.TrimSpace(a))
		if err != nil {
			return "", cfg, err
		}
		cfg.Archs = append(cfg.Archs, arch)
	}
	if cfg.TenantWeights, err = parseTenantWeights(*tenantWeights); err != nil {
		return "", cfg, err
	}
	if cfg.MaxResidentResults == 0 {
		cfg.MaxResidentResults = 1 << 18
	}
	return addr, cfg, nil
}

// serve runs the batch simulation service until interrupted.
func serve(args []string) error {
	addr, cfg, err := serveConfig(flag.NewFlagSet("simtune serve", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("simtune serve: listening on %s (archs %v, %d workers/arch, max resident %d)\n",
		addr, cfg.Archs, cfg.WorkersPerArch, cfg.MaxResidentResults)
	if cfg.CacheDir != "" {
		st, _ := srv.Statusz(ctx)
		fmt.Printf("  durable store %s: %d results recovered\n", cfg.CacheDir, st.CacheDiskEntries)
	}
	fmt.Printf("  POST %s/v1/simulate   GET %s/v1/statusz   GET %s/v1/metrics\n", addr, addr, addr)
	// SIGINT/SIGTERM cancel ctx; ListenAndServe then drains gracefully —
	// stops admitting (statusz flips to draining, routers rotate the node
	// out), lets in-flight batches finish within -drain-timeout, and flushes
	// and closes the durable store so everything computed this lifetime is
	// recoverable on the next start. Close here is an idempotent backstop
	// for the listen-error path.
	serveErr := srv.ListenAndServe(ctx, addr)
	if err := srv.Close(); err != nil && serveErr == nil {
		serveErr = err
	}
	if ctx.Err() != nil {
		fmt.Println("simtune serve: drained and stopped")
	}
	return serveErr
}

// parseTenantWeights parses a 'name=weight,name=weight' flag value into the
// admission gate's fair-share map (nil when empty: every tenant weighs 1).
func parseTenantWeights(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, kv := range strings.Split(spec, ",") {
		name, val, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found || name == "" {
			return nil, fmt.Errorf("-tenant-weights: %q wants name=weight", kv)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights: %q wants a positive weight", kv)
		}
		weights[name] = w
	}
	return weights, nil
}

// routeConfig declares `simtune route`'s flags on fs and parses args into the
// listen address, the ring (identities and node URLs) and the router
// configuration they ask for.
func routeConfig(fs *flag.FlagSet, args []string) (addr string, ids, urls []string, cfg service.RouterConfig, err error) {
	fs.StringVar(&addr, "addr", ":8060", "listen address")
	nodesFlag := fs.String("nodes", "", "comma-separated backend servers (required), each a URL or id=URL, e.g. sim-0=http://10.0.0.5:8070,http://sim-1:8070; the id (default: the URL) places the node on the ring, so a node that moves to a new address under its old id keeps its key range")
	fs.DurationVar(&cfg.ProbeInterval, "probe", 2*time.Second, "health-probe interval (a recovered node rejoins, warmed from its ring successors, within one interval)")
	fs.IntVar(&cfg.ReplicationFactor, "rf", 0, "replication factor: ring nodes holding each key — owner plus rf-1 successors (default 2; 1 disables replication)")
	fs.DurationVar(&cfg.AntiEntropyInterval, "antientropy", 0, "anti-entropy round interval: diff /v1/keys between replicas and repair gaps (default 1m; negative disables)")
	fs.DurationVar(&cfg.SlowBatchThreshold, "slow-batch", 0, "log a structured slow-batch line for batches slower than this (0 = off)")
	fs.BoolVar(&cfg.EnablePprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return "", nil, nil, cfg, err
	}
	ids, urls, err = parseNodes(*nodesFlag)
	return addr, ids, urls, cfg, err
}

// route runs the consistent-hash routing tier over N simulate servers until
// interrupted. The router speaks the exact wire protocol of a single server,
// so clients point -server at it unchanged; each cache key lives on exactly
// one node and a down node's key range drains to its ring successors.
func route(args []string) error {
	addr, ids, urls, cfg, err := routeConfig(flag.NewFlagSet("simtune route", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	backends := make([]service.Backend, len(urls))
	for i, u := range urls {
		backends[i] = service.NewClient(u)
	}
	rt, err := service.NewRouterBackends(ids, backends, cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("simtune route: listening on %s, sharding across %d nodes:\n", addr, len(ids))
	for i, id := range ids {
		if id == urls[i] {
			fmt.Printf("  %s\n", id)
		} else {
			fmt.Printf("  %s at %s\n", id, urls[i])
		}
	}
	fmt.Printf("  POST %s/v1/simulate   GET %s/v1/statusz (aggregated)   GET %s/v1/metrics (fleet-merged)\n", addr, addr, addr)
	return rt.ListenAndServe(ctx, addr)
}

// parseNodes splits the -nodes list into ring identities and base URLs.
// An element is a URL, whose identity is the URL itself, or id=URL; empty
// elements are skipped. Two nodes under one identity would share every ring
// position, so a repeated id is an error.
func parseNodes(spec string) (ids, urls []string, err error) {
	seen := map[string]bool{}
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		id, u := n, n
		// A URL's own '=' can only follow its "://"; an id has no slash.
		if eq := strings.IndexByte(n, '='); eq >= 0 && !strings.Contains(n[:eq], "/") {
			id, u = strings.TrimSpace(n[:eq]), strings.TrimSpace(n[eq+1:])
			if id == "" || u == "" {
				return nil, nil, fmt.Errorf("route: -nodes element %q: want id=url", n)
			}
		}
		if seen[id] {
			return nil, nil, fmt.Errorf("route: -nodes names node %q twice", id)
		}
		seen[id] = true
		ids, urls = append(ids, id), append(urls, u)
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("route: -nodes is required (comma-separated simulate-server URLs, optionally id=url)")
	}
	return ids, urls, nil
}

func run() error {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		return serve(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "route" {
		return route(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		return loadgenCmd(os.Args[2:])
	}
	archFlag := flag.String("arch", "riscv", "target architecture: x86|arm|riscv")
	scaleFlag := flag.String("scale", "small", "workload scale: tiny|small|paper")
	group := flag.Int("group", 1, "Table II conv group (0-4)")
	trials := flag.Int("trials", 64, "candidates to evaluate")
	runnerKind := flag.String("runner", "sim", "runner: native|sim|autotvm")
	predName := flag.String("predictor", "XGBoost", "score predictor for -runner sim")
	serverURL := flag.String("server", "", "simulate-service URL for -runner sim — a `simtune serve` node or a `simtune route` router, the protocol is identical (e.g. http://tuner-farm:8070); empty = in-process simulators")
	nPar := flag.Int("parallel", 4, "parallel simulator instances")
	implsPerGroup := flag.Int("train-impls", 40, "training implementations per group for -runner sim")
	seed := flag.Uint64("seed", 1, "random seed")
	topK := flag.Int("top", 5, "print the K best implementations")
	cacheDir := flag.String("cache", os.TempDir()+"/simtune-cache", "dataset cache directory")
	flag.Parse()

	arch, err := isa.ParseArch(*archFlag)
	if err != nil {
		return err
	}
	scale, err := te.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	prof := hw.Lookup(arch)
	start := time.Now()

	switch *runnerKind {
	case "native":
		return tuneNative(prof, scale, *group, *trials, *seed, *topK, start)
	case "autotvm":
		return tuneAutoTVM(prof, scale, *group, *trials, *seed, *topK, start)
	case "sim":
		return tuneSimulator(arch, scale, *group, *trials, *predName, *nPar,
			*implsPerGroup, *seed, *topK, *cacheDir, *serverURL, start)
	}
	return fmt.Errorf("unknown runner %q (want native|sim|autotvm)", *runnerKind)
}

// tuneNative measures every candidate on the modelled board (Fig. 2 flow).
func tuneNative(prof hw.Profile, scale te.Scale, group, trials int, seed uint64, topK int, start time.Time) error {
	factory := func() *te.Workload { return te.ConvGroup(scale, group) }
	lr := runner.NewLocalRunner(prof, hw.DefaultMeasureOptions(), num.NewRNG(seed))
	opt := ansor.DefaultOptions()
	opt.Trials, opt.BatchSize = trials, 16
	opt.Builder, opt.Runner = runner.LocalBuilder{Arch: prof.Arch}, lr
	records, err := ansor.Search(factory, opt, num.NewRNG(seed))
	if err != nil {
		return err
	}
	ok := simtune.TopK(records, len(records)) // the successful ones, best first
	fmt.Printf("native tuning of group %d on %s: %d candidates, wall-clock cost %.0f s (with cooldowns)\n",
		group, prof.Arch, len(ok), lr.WallClockSec())
	for i, r := range simtune.TopK(ok, topK) {
		fmt.Printf("  #%d tref=%.6fs  %s\n", i+1, r.Score, renderSteps(r.Steps, factory))
	}
	fmt.Printf("(host time %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// tuneAutoTVM uses the template-based flow with the model-guided tuner.
func tuneAutoTVM(prof hw.Profile, scale te.Scale, group, trials int, seed uint64, topK int, start time.Time) error {
	g := group
	factory := func() *te.Workload { return te.ConvGroup(scale, g) }
	tmpl := autotvm.ConvTemplate{}
	space, err := tmpl.Space(factory())
	if err != nil {
		return err
	}
	records, err := autotvm.Tune(factory, tmpl,
		autotvm.NewModelTuner(space, num.NewRNG(seed)),
		autotvm.Options{
			Trials: trials, BatchSize: 16,
			Builder: runner.LocalBuilder{Arch: prof.Arch},
			Runner:  runner.NewLocalRunner(prof, hw.DefaultMeasureOptions(), num.NewRNG(seed+1)),
		})
	if err != nil {
		return err
	}
	best := autotvm.Best(records)
	fmt.Printf("autotvm (xgb tuner) on group %d, %s: %d trials\n", group, prof.Arch, len(records))
	if best != nil {
		fmt.Printf("best config: %s  tref=%.6fs\n", space.String(best.Config), best.TimeSec)
		fmt.Printf("schedule: %s\n", renderSteps(best.Steps, factory))
	}
	fmt.Printf("(host time %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// tuneSimulator is the paper's flow: train a predictor, tune on simulators
// only, then validate the top-K natively. With serverURL the tuning batches
// go to a shared simulate service instead of in-process simulators.
func tuneSimulator(arch isa.Arch, scale te.Scale, group, trials int, predName string, nPar, implsPerGroup int, seed uint64, topK int, cacheDir, serverURL string, start time.Time) error {
	trainGroups := []int{}
	for gi := 0; gi < te.NumConvGroups; gi++ {
		if gi != group {
			trainGroups = append(trainGroups, gi)
		}
	}
	fmt.Printf("training %s predictor for %s on groups %v (%d impls each)...\n",
		predName, arch, trainGroups, implsPerGroup)
	model, err := simtune.TrainScorePredictor(simtune.TrainOptions{
		Arch: arch, Scale: scale, Predictor: predName, Groups: trainGroups,
		ImplsPerGroup: implsPerGroup, NParallel: nPar, Seed: seed, CacheDir: cacheDir,
	})
	if err != nil {
		return err
	}
	if serverURL != "" {
		fmt.Printf("tuning group %d against simulate service %s (target board NOT used)...\n", group, serverURL)
	} else {
		fmt.Printf("tuning group %d on %d parallel simulators (target board NOT used)...\n", group, nPar)
	}
	records, err := model.TuneGroup(simtune.TuneGroupOptions{
		Group: group, Trials: trials, NParallel: nPar, ServerURL: serverURL,
	})
	if err != nil {
		return err
	}
	if serverURL != "" {
		hits, misses, simSec := simtune.CacheStats(records)
		fmt.Printf("service cache: %d hits / %d misses (%.0f%% absorbed), %.3f s simulated\n",
			hits, misses, 100*float64(hits)/float64(max(1, hits+misses)), simSec)
		if ct, ok := model.ServiceStats(); ok {
			fmt.Printf("service client: %d attempts (%d retried, %.1f s backoff), attempt p50=%.1fms p99=%.1fms\n",
				ct.Attempts, ct.Retries, ct.BackoffTotal.Seconds(),
				float64(ct.AttemptLatency.Quantile(0.5))/1e6,
				float64(ct.AttemptLatency.Quantile(0.99))/1e6)
		}
	}
	top := simtune.TopK(records, topK)
	fmt.Printf("top %d of %d candidates by predicted score:\n", len(top), len(records))
	for i, r := range top {
		fmt.Printf("  #%d score=%+.4f\n", i+1, r.Score)
	}
	best, idx, err := model.ValidateOnTarget(group, top)
	if err != nil {
		return err
	}
	fmt.Printf("validated on target: best candidate #%d runs in %.6f s\n", idx+1, best)
	fmt.Printf("(host time %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func renderSteps(steps []schedule.Step, factory runner.WorkloadFactory) string {
	wl := factory()
	s, err := schedule.Replay(wl.Op, steps)
	if err != nil {
		return fmt.Sprintf("(unrenderable: %v)", err)
	}
	return s.String()
}
