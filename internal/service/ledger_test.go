package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/isa"
)

// ledgerTables pairs each ledger table with the statusz struct it describes
// and the prefix its rows carry in ARCHITECTURE.md's glossary.
var ledgerTables = []struct {
	row    any
	prefix string
	table  []ledger
}{
	{Statusz{}, "", statuszLedgers},
	{ShardStatus{}, "shards[].", shardLedgers},
	{TenantStatus{}, "tenants[].", tenantLedgers},
}

// notLedgers are the numeric statusz fields that are deliberately not
// ledgers: neither exported as a series nor summed by a router.
var notLedgers = map[string]bool{"Statusz.UptimeSec": true, "TenantStatus.Weight": true}

// TestEveryStatuszNumberIsDeclared is what "declared once" means for a
// reader: a numeric field added to statusz without a ledger line (or an
// entry in notLedgers) fails here, and so does a ledger whose glossary row
// in ARCHITECTURE.md is missing or disagrees with the declaration.
func TestEveryStatuszNumberIsDeclared(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	code := func(s string) string {
		if s == "" {
			return "—"
		}
		return "`" + s + "`"
	}
	for _, lt := range ledgerTables {
		typ := reflect.TypeOf(lt.row)
		declared := map[string]bool{}
		for _, l := range lt.table {
			f, ok := typ.FieldByName(l.field)
			if !ok {
				t.Errorf("ledger names %s.%s, which does not exist", typ.Name(), l.field)
				continue
			}
			declared[l.field] = true
			onRouter := code(l.router)
			if l.sum {
				onRouter = "sum"
			}
			jsonName, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			row := fmt.Sprintf("| `%s%s` | %s | %s |", lt.prefix, jsonName, code(l.series), onRouter)
			if !strings.Contains(string(doc), row) {
				t.Errorf("ARCHITECTURE.md's statusz glossary has no row starting %q", row)
			}
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
				if name := typ.Name() + "." + f.Name; declared[f.Name] == notLedgers[name] {
					t.Errorf("%s must be in exactly one of its ledger table and notLedgers", name)
				}
			}
		}
	}
}

// checkInvariant fetches b's statusz and checks hits + misses + canceled ==
// candidates as the ledger declaration spells it (the inv column), top level
// and per tenant. It holds on a node, through a Client, and on a router whose
// traffic all reached its nodes.
func checkInvariant(t *testing.T, b Backend) *Statusz {
	t.Helper()
	st, err := b.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, table []ledger, row any) {
		var total, parts float64
		for _, l := range table {
			switch v := ledgerValue(reflect.ValueOf(row).Elem(), l); l.inv {
			case invTotal:
				total += v
			case invPart:
				parts += v
			}
		}
		if total != parts {
			t.Errorf("%T %s: hits + misses + canceled = %v, candidates = %v", b, what, parts, total)
		}
	}
	check("top level", statuszLedgers, st)
	for i := range st.Tenants {
		check("tenant "+st.Tenants[i].Tenant, tenantLedgers, &st.Tenants[i])
	}
	return st
}

// seriesOf lists a scrape's series, name and label set, sorted.
func seriesOf(t *testing.T, b MetricsBackend) []string {
	t.Helper()
	snap, err := b.MetricsSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, h := range snap.Hists {
		out = append(out, h.Name+"{"+h.Labels+"}")
	}
	for _, m := range append(snap.Counters, snap.Gauges...) {
		out = append(out, m.Name+"{"+m.Labels+"}")
	}
	sort.Strings(out)
	return out
}

// TestScrapeSeriesAndLedgerSums drives a two-node fleet through a fixed
// sequence — misses, hits under a second tenant, a canceled batch, a 429 shed
// to the other node — and then holds the wire to what it was before the
// ledgers were declared in one place: the series a node with and without a
// durable store and a router export (testdata/series.golden, taken at the
// parent commit with this sequence), the invariant at every tier, each
// node's candidate totals equal to the sums over its tenant rows, and every
// summed ledger of the router equal to the sum over its nodes.
func TestScrapeSeriesAndLedgerSums(t *testing.T) {
	ctx := context.Background()
	servers := make([]*Server, 2)
	backends := make([]Backend, 2)
	for i := range servers {
		cfg := Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2}
		if i == 0 {
			cfg.CacheDir = t.TempDir()
		}
		servers[i] = mustServer(t, cfg)
		defer servers[i].Close()
		backends[i] = servers[i]
	}
	rt, err := NewRouterBackends([]string{"node-a", "node-b"}, backends,
		RouterConfig{ProbeInterval: -1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	batch := func(group, n int) *SimulateRequest {
		return &SimulateRequest{Arch: "riscv", Workload: ConvGroupSpec("tiny", group), Candidates: tinyCandidates(t, group, n)}
	}
	if _, err := rt.Simulate(ctx, batch(1, 8)); err != nil { // misses
		t.Fatal(err)
	}
	if _, err := rt.Simulate(WithTenant(ctx, "acme"), batch(1, 8)); err != nil { // hits
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := rt.Simulate(canceled, batch(2, 8)); err == nil {
		t.Fatal("a batch under a canceled context succeeded")
	}
	// One 429: node-a's gate is full, so its share of the batch is shed to
	// node-b and the batch still succeeds.
	full := servers[0].cfg.MaxQueuedCandidates
	def := servers[0].admit.tenant(DefaultTenant)
	servers[0].admit.tryAcquire(def, full)
	_, err = rt.Simulate(ctx, batch(3, 8))
	servers[0].admit.release(def, full)
	if err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(servers[0].Handler())
	defer hs.Close()
	agg := checkInvariant(t, rt)
	nodes := []*Statusz{checkInvariant(t, NewClient(hs.URL)), checkInvariant(t, servers[1])}
	if agg.CacheCanceled == 0 || agg.RejectedCandidates == 0 || agg.Rerouted == 0 || len(agg.Tenants) != 2 {
		t.Fatalf("the sequence did not exercise cancel, 429 and two tenants: %+v", agg)
	}
	for i, st := range nodes {
		var rows [5]uint64
		for _, row := range st.Tenants {
			rows[0] += row.Candidates
			rows[1] += row.RejectedCandidates
			rows[2] += row.CacheHits
			rows[3] += row.CacheMisses
			rows[4] += row.CacheCanceled
		}
		totals := [5]uint64{st.Candidates, st.RejectedCandidates, st.CacheHits, st.CacheMisses, st.CacheCanceled}
		if totals != rows {
			t.Errorf("node %d candidates, rejected, hits, misses, canceled = %v, its tenant rows sum to %v", i, totals, rows)
		}
	}
	for _, l := range statuszLedgers {
		var sum float64
		for _, st := range nodes {
			sum += ledgerValue(reflect.ValueOf(st).Elem(), l)
		}
		if got := ledgerValue(reflect.ValueOf(agg).Elem(), l); l.sum && got != sum {
			t.Errorf("router %s = %v, its nodes sum to %v", l.field, got, sum)
		}
	}
	for i := range agg.Tenants {
		for _, l := range tenantLedgers {
			var sum float64
			for _, st := range nodes {
				for j := range st.Tenants {
					if st.Tenants[j].Tenant == agg.Tenants[i].Tenant {
						sum += ledgerValue(reflect.ValueOf(&st.Tenants[j]).Elem(), l)
					}
				}
			}
			if got := ledgerValue(reflect.ValueOf(&agg.Tenants[i]).Elem(), l); got != sum {
				t.Errorf("router tenant %s %s = %v, its nodes sum to %v", agg.Tenants[i].Tenant, l.field, got, sum)
			}
		}
	}

	// The golden lists what every tier exports, then what a durable store
	// adds to a node, then what only a router adds.
	golden, err := os.ReadFile("testdata/series.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, section := range strings.Split(strings.TrimSpace(string(golden)), "\n# ") {
		if i > 0 {
			_, section, _ = strings.Cut(section, "\n")
		}
		want = append(want, strings.Split(section, "\n")...)
		sort.Strings(want)
		b := []MetricsBackend{servers[1], servers[0], rt}[i]
		if got := seriesOf(t, b); !reflect.DeepEqual(got, want) {
			t.Errorf("%T scrape %d has series:\n%s\nwant:\n%s", b, i, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
