package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/loadgen"
	"repro/internal/service"
)

// quietFlags is a flag set that returns parse errors instead of exiting.
func quietFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestServeAndRouteFlagWiring: argument lists become exactly the Config and
// RouterConfig they spell — defaults left zero for the service to fill — and
// the flags that selected deleted paths are refused by name.
func TestServeAndRouteFlagWiring(t *testing.T) {
	addr, cfg, err := serveConfig(quietFlags(), nil)
	if want := (service.Config{Archs: isa.Archs(), WorkersPerArch: 4, MaxResidentResults: 1 << 18}); err != nil ||
		addr != ":8070" || !reflect.DeepEqual(cfg, want) {
		t.Errorf("serve defaults = %q, %+v, %v; want :8070, %+v", addr, cfg, err, want)
	}
	addr, cfg, err = serveConfig(quietFlags(), strings.Fields("-addr :1 -archs riscv,arm -workers 2 -max-resident 0"+
		" -cache-dir /d -max-queued 7 -tenant-weights ci=3 -drain-timeout 5s -slow-batch 1ms -pprof"))
	if want := (service.Config{Archs: []isa.Arch{isa.RISCV, isa.ARM}, WorkersPerArch: 2, MaxResidentResults: 1 << 18,
		CacheDir: "/d", MaxQueuedCandidates: 7, TenantWeights: map[string]float64{"ci": 3},
		DrainTimeout: 5 * time.Second, SlowBatchThreshold: time.Millisecond, EnablePprof: true}); err != nil ||
		addr != ":1" || !reflect.DeepEqual(cfg, want) {
		t.Errorf("serve flags = %q, %+v, %v; want :1, %+v", addr, cfg, err, want)
	}

	addr, ids, urls, rcfg, err := routeConfig(quietFlags(), strings.Fields("-nodes a=http://x:1,http://y:2"))
	if want := (service.RouterConfig{ProbeInterval: 2 * time.Second}); err != nil || addr != ":8060" ||
		!reflect.DeepEqual(ids, []string{"a", "http://y:2"}) || !reflect.DeepEqual(urls, []string{"http://x:1", "http://y:2"}) ||
		!reflect.DeepEqual(rcfg, want) {
		t.Errorf("route defaults = %q, %v, %v, %+v, %v; want :8060, %+v", addr, ids, urls, rcfg, err, want)
	}
	_, _, _, rcfg, err = routeConfig(quietFlags(), strings.Fields("-nodes http://x:1 -probe 300ms -rf 3 -antientropy -1s -slow-batch 2ms -pprof"))
	if want := (service.RouterConfig{ProbeInterval: 300 * time.Millisecond, ReplicationFactor: 3,
		AntiEntropyInterval: -time.Second, SlowBatchThreshold: 2 * time.Millisecond, EnablePprof: true}); err != nil ||
		!reflect.DeepEqual(rcfg, want) {
		t.Errorf("route flags = %+v, %v; want %+v", rcfg, err, want)
	}
	if _, _, _, _, err := routeConfig(quietFlags(), nil); err == nil {
		t.Error("route without -nodes was accepted")
	}

	refused := func(err error, name string) bool {
		return err != nil && strings.Contains(err.Error(), "not defined: "+name)
	}
	for _, gone := range []string{"-no-telemetry", "-trace-ring", "-cache-seg-bytes"} {
		if _, _, err := serveConfig(quietFlags(), []string{gone + "=1"}); !refused(err, gone) {
			t.Errorf("serve %s: %v, want it refused by name", gone, err)
		}
	}
	for _, gone := range []string{"-no-telemetry", "-trace-ring", "-handoff"} {
		if _, _, _, _, err := routeConfig(quietFlags(), []string{"-nodes", "http://x:1", gone + "=1"}); !refused(err, gone) {
			t.Errorf("route %s: %v, want it refused by name", gone, err)
		}
	}
}

// TestLoadgenFlagWiring: the loadgen flags become exactly the trace Config
// and fleet settings they spell, and a malformed step, isolation pair or
// tenant spec is refused.
func TestLoadgenFlagWiring(t *testing.T) {
	cfg, o, err := loadgenConfig(quietFlags(), nil)
	want := loadgen.Config{Seed: 1, Duration: 3 * time.Second, Steps: []float64{0.5, 1, 2},
		Tenants: loadgen.DefaultScenario(), Isolation: &loadgen.IsolationSpec{Compliant: "batch", Aggressor: "burst"}}
	wantO := loadgenFlags{title: "Multi-tenant saturation sweep", nodes: 3, workers: 1, maxQueued: 6}
	if err != nil || !reflect.DeepEqual(cfg, want) || o != wantO {
		t.Errorf("loadgen defaults = %+v, %+v, %v; want %+v, %+v", cfg, o, err, want, wantO)
	}

	tenants := "a,rate=5,workload=matmul:8:8:8;b,arrival=onoff,rate=2"
	cfg, o, err = loadgenConfig(quietFlags(), strings.Fields("-seed 7 -duration 250ms -steps 1,3 -tenants "+tenants+
		" -isolation a:b -server http://x:1 -nodes 2 -workers 3 -max-queued 9 -report /r.json -pr 4 -title T"))
	parsed, perr := loadgen.ParseTenants(tenants)
	if perr != nil {
		t.Fatal(perr)
	}
	want = loadgen.Config{Seed: 7, Duration: 250 * time.Millisecond, Steps: []float64{1, 3},
		Tenants: parsed, Isolation: &loadgen.IsolationSpec{Compliant: "a", Aggressor: "b"}}
	wantO = loadgenFlags{server: "http://x:1", report: "/r.json", title: "T", nodes: 2, workers: 3, maxQueued: 9, pr: 4}
	if err != nil || !reflect.DeepEqual(cfg, want) || o != wantO {
		t.Errorf("loadgen flags = %+v, %+v, %v; want %+v, %+v", cfg, o, err, want, wantO)
	}

	for _, bad := range []string{"-steps 1,x", "-isolation batch"} {
		if _, _, err := loadgenConfig(quietFlags(), strings.Fields(bad)); err == nil {
			t.Errorf("loadgen %s was accepted", bad)
		}
	}
	_, perr = loadgen.ParseTenants("a,rate")
	if _, _, err := loadgenConfig(quietFlags(), []string{"-tenants", "a,rate"}); perr == nil || err == nil || err.Error() != perr.Error() {
		t.Errorf("loadgen -tenants a,rate: %v; want ParseTenants' refusal %v", err, perr)
	}
}

func TestParseNodes(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		ids, urls  []string
		wantErr    string
	}{
		{name: "bare urls", spec: "http://sim-0:8070,http://sim-1:8070",
			ids: []string{"http://sim-0:8070", "http://sim-1:8070"}, urls: []string{"http://sim-0:8070", "http://sim-1:8070"}},
		{name: "id=url beside bare", spec: "a=http://10.0.0.5:8070, http://sim-1:8070",
			ids: []string{"a", "http://sim-1:8070"}, urls: []string{"http://10.0.0.5:8070", "http://sim-1:8070"}},
		{name: "empty elements skipped", spec: ",a=http://x:1,, ,b=http://y:2,",
			ids: []string{"a", "b"}, urls: []string{"http://x:1", "http://y:2"}},
		{name: "equals inside a url is not a separator", spec: "http://x:1/?k=v,a=http://y:2/?k=v",
			ids: []string{"http://x:1/?k=v", "a"}, urls: []string{"http://x:1/?k=v", "http://y:2/?k=v"}},
		{name: "duplicate id", spec: "a=http://x:1,a=http://y:2", wantErr: `"a" twice`},
		{name: "duplicate bare url", spec: "http://x:1,http://x:1", wantErr: "twice"},
		{name: "missing url", spec: "a=", wantErr: "want id=url"},
		{name: "missing id", spec: "=http://x:1", wantErr: "want id=url"},
		{name: "nothing", spec: " , ", wantErr: "-nodes is required"},
	} {
		ids, urls, err := parseNodes(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(ids, tc.ids) || !reflect.DeepEqual(urls, tc.urls) {
			t.Errorf("%s: parseNodes(%q) = %v, %v, %v; want %v, %v", tc.name, tc.spec, ids, urls, err, tc.ids, tc.urls)
		}
	}
}

// checkGolden runs simtune with args and holds its report, the host-time
// line aside, byte for byte to testdata/<golden>.
func checkGolden(t *testing.T, args, golden string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(strings.Fields(args), &out); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.HasPrefix(line, "(host time ") {
			got.WriteString(line)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("report differs from testdata/%s:\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}

// TestNativeRunnerGolden runs the classic flow — Ansor search measured on
// the modelled board — end to end at tiny scale and holds its report to a
// checked-in golden.
func TestNativeRunnerGolden(t *testing.T) {
	checkGolden(t, "-runner native -scale tiny -trials 24 -top 5", "native_tiny.golden")
}

// TestSimRunnerGolden runs the paper's flow — a predictor trained on
// simulator statistics ranks candidates tuned on parallel simulators, and
// the best is validated on the modelled board — and holds its report to a
// checked-in golden.
func TestSimRunnerGolden(t *testing.T) {
	checkGolden(t, "-runner sim -scale tiny -trials 16 -train-impls 8 -parallel 2 -cache= -top 3", "sim_tiny.golden")
}

func TestUnknownRunnerRefused(t *testing.T) {
	err := run([]string{"-runner", "bogus"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "want native|sim|autotvm") {
		t.Fatalf("-runner bogus: %v, want the native|sim|autotvm error", err)
	}
}
