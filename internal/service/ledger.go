package service

import (
	"reflect"

	"repro/internal/obs"
)

// ledger declares one scalar of the statusz and metrics surface, once. Server
// and Router each read their atomics into the statusz struct in one place;
// the scrape (exportLedgers), the router's aggregation (sumLedgers), the
// glossary in ARCHITECTURE.md and the tests' invariant check all follow from
// these tables, so a new counter is a struct field and one line here.
type ledger struct {
	field  string // Go field of Statusz, ShardStatus or TenantStatus carrying it
	series string // what a node's scrape calls it; "" for no series
	// router, when set, is what a router's scrape calls its own count of the
	// same thing: the field is then the router's, not a sum over its nodes.
	router string
	gauge  bool    // a gauge; otherwise a counter
	sum    bool    // a router's statusz reports the sum over reachable nodes
	inv    invRole // its place in hits + misses + canceled == candidates
	disk   bool    // exported only by a node with a durable store
}

// invRole's zero value is a parallel ledger: it counts something that serves
// no candidate (rejections, evictions, replication) or breaks a term down
// further (disk hits), and stays outside the invariant.
type invRole uint8

const (
	invTotal invRole = iota + 1 // candidates
	invPart                     // hits, misses, canceled
)

var statuszLedgers = []ledger{
	{field: "Requests", series: "simtune_requests_total", router: "simtune_router_requests_total"},
	{field: "Candidates", series: "simtune_candidates_total", router: "simtune_router_candidates_total", inv: invTotal},
	{field: "RejectedCandidates", series: "simtune_rejected_candidates_total", sum: true},
	{field: "CacheHits", series: "simtune_cache_hits_total", sum: true, inv: invPart},
	{field: "CacheMisses", series: "simtune_cache_misses_total", sum: true, inv: invPart},
	{field: "CacheCanceled", series: "simtune_cache_canceled_total", sum: true, inv: invPart},
	// cache_entries is the older name of cache_resident, kept as its alias.
	{field: "CacheEntries", series: "simtune_cache_entries", gauge: true, sum: true},
	{field: "CacheResident", series: "simtune_cache_resident", gauge: true, sum: true},
	{field: "CacheDiskHits", series: "simtune_cache_disk_hits_total", sum: true},
	{field: "CacheDiskEntries", series: "simtune_cache_disk_entries", gauge: true, sum: true, disk: true},
	{field: "CacheEvictions", series: "simtune_cache_evictions_total", sum: true},
	{field: "HandoffKeys", series: "simtune_handoff_keys_total", router: "simtune_router_handoff_keys_total"},
	{field: "StoreLiveBytes", series: "simtune_store_live_bytes", gauge: true, disk: true},
	{field: "StoreTotalBytes", series: "simtune_store_total_bytes", gauge: true, disk: true},
	{field: "Rerouted", router: "simtune_router_rerouted_total"},
	{field: "ReplicaKeys", router: "simtune_router_replica_keys_total"},
	{field: "AntiEntropyRounds", router: "simtune_router_antientropy_rounds_total"},
}

// shardLedgers are exported under an arch label and summed per arch.
var shardLedgers = []ledger{
	{field: "Workers", sum: true},
	{field: "Queued", series: "simtune_queue_depth", gauge: true, sum: true},
	{field: "Running", series: "simtune_running", gauge: true, sum: true},
	{field: "Simulated", series: "simtune_simulated_total", sum: true},
}

// tenantLedgers are exported under a tenant label and summed per tenant; the
// invariant holds per tenant exactly as it does for the whole node.
var tenantLedgers = []ledger{
	{field: "Admitted", series: "simtune_tenant_admitted_candidates", gauge: true, sum: true},
	{field: "Candidates", series: "simtune_tenant_candidates_total", sum: true, inv: invTotal},
	{field: "RejectedCandidates", series: "simtune_tenant_rejected_candidates_total", sum: true},
	{field: "CacheHits", series: "simtune_tenant_cache_hits_total", sum: true, inv: invPart},
	{field: "CacheMisses", series: "simtune_tenant_cache_misses_total", sum: true, inv: invPart},
	{field: "CacheCanceled", series: "simtune_tenant_cache_canceled_total", sum: true, inv: invPart},
}

// ledgerValue reads a ledger's field (uint64, int64 or int) out of row, a
// struct value of the type the ledger's table describes.
func ledgerValue(row reflect.Value, l ledger) float64 {
	f := row.FieldByName(l.field)
	if f.Kind() == reflect.Uint64 {
		return float64(f.Uint())
	}
	return float64(f.Int())
}

// exportLedgers appends to snap one sample per ledger of table, read from
// row (a pointer to the struct the table describes) under labels. name picks
// the series a ledger goes out as on this tier; "" leaves it out.
func exportLedgers(snap *obs.MetricsSnapshot, table []ledger, row any, labels string, name func(ledger) string) {
	v := reflect.ValueOf(row).Elem()
	for _, l := range table {
		n := name(l)
		if n == "" {
			continue
		}
		m := obs.ScalarMetric{Name: n, Labels: labels, Value: ledgerValue(v, l)}
		if l.gauge {
			snap.Gauges = append(snap.Gauges, m)
		} else {
			snap.Counters = append(snap.Counters, m)
		}
	}
}

// sumLedgers adds src's summed ledgers into dst (pointers to the struct the
// table describes) — how a router folds one node's row into its aggregate.
func sumLedgers(table []ledger, dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for _, l := range table {
		if !l.sum {
			continue
		}
		if df, sf := d.FieldByName(l.field), s.FieldByName(l.field); df.Kind() == reflect.Uint64 {
			df.SetUint(df.Uint() + sf.Uint())
		} else {
			df.SetInt(df.Int() + sf.Int())
		}
	}
}
