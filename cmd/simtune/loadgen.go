package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
)

// loadgenCmd runs the seeded multi-tenant traffic generator: against -server
// (a live node or router), or — without it — against an in-process fleet of
// -nodes fresh servers behind an in-process router, which is the
// reproducible saturation-test fixture. With -report it writes the
// saturation report (loadgen.Report) as JSON.
func loadgenCmd(args []string) error {
	cfg, o, err := loadgenConfig(flag.NewFlagSet("simtune loadgen", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var backend service.Backend
	if o.server != "" {
		backend = service.NewClient(o.server)
		fmt.Printf("simtune loadgen: driving %s (seed %d, %d tenants, steps %v)\n",
			o.server, cfg.Seed, len(cfg.Tenants), cfg.Steps)
	} else {
		rt, cleanup, err := loadgen.LocalFleet(o.nodes, service.Config{
			WorkersPerArch:      o.workers,
			MaxQueuedCandidates: o.maxQueued,
			TenantWeights:       cfg.TenantWeights(),
		})
		if err != nil {
			return err
		}
		defer cleanup()
		backend = rt
		fmt.Printf("simtune loadgen: in-process fleet of %d nodes (%d workers/arch, max-queued %d/node; seed %d, %d tenants, steps %v)\n",
			o.nodes, o.workers, o.maxQueued, cfg.Seed, len(cfg.Tenants), cfg.Steps)
	}

	r := &loadgen.Runner{Backend: backend, Cfg: cfg, Log: func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	}}
	rep, err := r.Run(ctx)
	if err != nil {
		return err
	}
	if err := loadgen.ValidateReport(rep); err != nil {
		return err
	}

	fmt.Printf("trace_sha256 %s\n", rep.TraceSHA256)
	for _, s := range rep.Steps {
		fmt.Printf("step %-6s", s.Phase)
		for _, t := range s.Tenants {
			fmt.Printf("  %s: offered %d, p50 %.1fms p99 %.1fms, rejected %d",
				t.Tenant, t.OfferedCandidates, t.P50MS, t.P99MS, t.Rejected)
		}
		fmt.Println()
	}
	if iso := rep.Isolation; iso != nil {
		fmt.Printf("isolation %s vs %s: solo p99 %.1fms, contended p99 %.1fms (%.2fx), aggressor shed %d, compliant shed %d — isolated=%v\n",
			iso.Compliant, iso.Aggressor, iso.SoloP99MS, iso.ContendedP99MS,
			iso.P99Ratio, iso.AggressorRejected, iso.CompliantRejected, iso.Isolated)
	}

	if o.report != "" {
		envelope := struct {
			PR         int             `json:"pr"`
			Title      string          `json:"title"`
			Date       string          `json:"date"`
			Machine    string          `json:"machine"`
			Saturation *loadgen.Report `json:"saturation"`
		}{
			PR: o.pr, Title: o.title,
			Date:       time.Now().UTC().Format("2006-01-02"),
			Machine:    runtime.GOOS + "/" + runtime.GOARCH + " " + strconv.Itoa(runtime.NumCPU()) + " cpu",
			Saturation: rep,
		}
		buf, err := json.MarshalIndent(envelope, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(o.report, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", o.report)
	}
	return nil
}

// loadgenFlags is what the loadgen flags set besides the loadgen.Config.
type loadgenFlags struct {
	server, report, title         string
	nodes, workers, maxQueued, pr int
}

// loadgenConfig parses the loadgen flags into the trace's Config, unvalidated,
// and the fleet and report settings.
func loadgenConfig(fs *flag.FlagSet, args []string) (cfg loadgen.Config, o loadgenFlags, err error) {
	fs.Uint64Var(&cfg.Seed, "seed", 1, "trace seed; the same seed reproduces the same offered-load trace")
	fs.DurationVar(&cfg.Duration, "duration", 3*time.Second, "offered-load window per sweep step")
	stepsFlag := fs.String("steps", "0.5,1,2", "comma-separated offered-load multipliers to sweep")
	tenantsFlag := fs.String("tenants", "", "tenant mix spec (see ParseTenants doc; empty = built-in 2-tenant batch/burst scenario)")
	isoFlag := fs.String("isolation", "", "compliant:aggressor tenant pair for the isolation verdict (default batch:burst with the built-in scenario)")
	fs.StringVar(&o.server, "server", "", "drive this live simulate service URL instead of an in-process fleet")
	fs.IntVar(&o.nodes, "nodes", 3, "in-process fleet size (ignored with -server)")
	fs.IntVar(&o.workers, "workers", 1, "simulator workers per arch on each in-process node")
	fs.IntVar(&o.maxQueued, "max-queued", 6, "per-node admission bound for the in-process fleet (candidates)")
	fs.StringVar(&o.report, "report", "", "write the saturation report JSON here")
	fs.IntVar(&o.pr, "pr", 0, "PR number stamped into the report envelope")
	fs.StringVar(&o.title, "title", "Multi-tenant saturation sweep", "report envelope title")
	if err := fs.Parse(args); err != nil {
		return cfg, o, err
	}
	for _, s := range strings.Split(*stepsFlag, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		m, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cfg, o, fmt.Errorf("loadgen: -steps: %v", err)
		}
		cfg.Steps = append(cfg.Steps, m)
	}
	if *tenantsFlag == "" {
		cfg.Tenants = loadgen.DefaultScenario()
		if *isoFlag == "" {
			*isoFlag = "batch:burst"
		}
	} else if cfg.Tenants, err = loadgen.ParseTenants(*tenantsFlag); err != nil {
		return cfg, o, err
	}
	if *isoFlag != "" {
		c, a, found := strings.Cut(*isoFlag, ":")
		if !found {
			return cfg, o, fmt.Errorf("loadgen: -isolation wants compliant:aggressor, got %q", *isoFlag)
		}
		cfg.Isolation = &loadgen.IsolationSpec{Compliant: c, Aggressor: a}
	}
	return cfg, o, nil
}
