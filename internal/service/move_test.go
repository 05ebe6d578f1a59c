package service

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

func keySet(keys ...Key) map[Key]bool {
	m := make(map[Key]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// TestPlan pins the diff every key-movement policy shares. Nodes are 0..3;
// place is a fixed table, so no ring is involved.
func TestPlan(t *testing.T) {
	a, b, c := testKey(1), testKey(2), testKey(3)
	placeAt := func(table map[Key][]int) func(Key) []int {
		return func(k Key) []int { return table[k] }
	}
	for _, tc := range []struct {
		name  string
		invs  map[int][]Key
		has   []map[Key]bool
		place map[Key][]int
		want  []transfer
	}{{
		name:  "a key held twice is planned once, from the first holder",
		invs:  map[int][]Key{0: {a}, 1: {}, 2: {a}},
		has:   []map[Key]bool{keySet(a), keySet(), keySet(a)},
		place: map[Key][]int{a: {0, 1}},
		want:  []transfer{{source: 0, target: 1, keys: []Key{a}}},
	}, {
		name:  "keys the target holds are skipped",
		invs:  map[int][]Key{0: {a, b}, 1: {b}},
		has:   []map[Key]bool{keySet(a, b), keySet(b)},
		place: map[Key][]int{a: {0, 1}, b: {0, 1}},
		want:  []transfer{{source: 0, target: 1, keys: []Key{a}}},
	}, {
		name:  "an empty node is a target for everything",
		invs:  map[int][]Key{0: {a, b}, 1: nil},
		has:   []map[Key]bool{keySet(a, b), keySet()},
		place: map[Key][]int{a: {0, 1}, b: {1, 0}},
		want:  []transfer{{source: 0, target: 1, keys: []Key{a, b}}},
	}, {
		name:  "an absent node is neither source nor target",
		invs:  map[int][]Key{0: {a}, 2: {b}},
		has:   []map[Key]bool{keySet(a), nil, keySet(b)},
		place: map[Key][]int{a: {0, 1}, b: {1, 2}, c: {1, 0}},
		want:  nil,
	}, {
		name:  "one transfer per source and target pair",
		invs:  map[int][]Key{0: {a, b}, 1: {c}, 2: {}},
		has:   []map[Key]bool{keySet(a, b), keySet(c), keySet()},
		place: map[Key][]int{a: {0, 2}, b: {0, 2}, c: {1, 2}},
		want: []transfer{
			{source: 0, target: 2, keys: []Key{a, b}},
			{source: 1, target: 2, keys: []Key{c}},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got := plan(tc.invs, tc.has, placeAt(tc.place))
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("plan = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestPlanHasCarriesAcrossRounds is rejoin's shape: node 1 is the only
// target, its has-set outlives the round, and the peers' inventories grow
// between rounds — the second round must plan only what is new.
func TestPlanHasCarriesAcrossRounds(t *testing.T) {
	a, b, c := testKey(1), testKey(2), testKey(3)
	toOne := func(Key) []int { return []int{1} }
	has := []map[Key]bool{nil, keySet(a), nil}

	first := plan(map[int][]Key{0: {a, b}}, has, toOne)
	if want := []transfer{{source: 0, target: 1, keys: []Key{b}}}; !reflect.DeepEqual(first, want) {
		t.Fatalf("first round = %+v, want %+v", first, want)
	}
	second := plan(map[int][]Key{0: {a, b}, 2: {b, c}}, has, toOne)
	if want := []transfer{{source: 2, target: 1, keys: []Key{c}}}; !reflect.DeepEqual(second, want) {
		t.Fatalf("second round = %+v, want only the delta %+v", second, want)
	}
	if third := plan(map[int][]Key{0: {a, b}, 2: {b, c}}, has, toOne); third != nil {
		t.Fatalf("settled round planned %+v, want nothing", third)
	}
}

// countingNode is a HandoffBackend that records the size of every call and
// can be told to fail. The embedded Backend stays nil: move never simulates.
type countingNode struct {
	Backend
	held          map[Key]bool // what Ingest skips as already present
	fetchErr      error
	ingestFailsAt int // 1-based Ingest call that fails; 0 never

	fetches, ingests []int
	reported         int // sum of what Ingest returned
}

func (n *countingNode) Keys(context.Context, uint64, uint64) ([]Key, error) { return nil, nil }

func (n *countingNode) Fetch(_ context.Context, keys []Key) ([]Entry, error) {
	n.fetches = append(n.fetches, len(keys))
	if n.fetchErr != nil {
		return nil, n.fetchErr
	}
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i].Key = k
	}
	return entries, nil
}

func (n *countingNode) Ingest(_ context.Context, entries []Entry) (int, error) {
	n.ingests = append(n.ingests, len(entries))
	if len(n.ingests) == n.ingestFailsAt {
		return 0, errors.New("injected ingest fault")
	}
	fresh := 0
	for _, e := range entries {
		if !n.held[e.Key] {
			fresh++
		}
	}
	n.reported += fresh
	return fresh, nil
}

func moveFleet(nodes ...*countingNode) *Router {
	rt := &Router{}
	for _, n := range nodes {
		rt.nodes = append(rt.nodes, &routerNode{backend: n})
	}
	return rt
}

func manyKeys(n int, tag byte) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{tag, byte(i >> 8), byte(i)}
	}
	return keys
}

// TestMoveChunks is the first test to enter a second chunk: 600 results
// travel as 256/256/88 whether they are fetched or already in hand.
func TestMoveChunks(t *testing.T) {
	keys := manyKeys(600, 1)
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i].Key = k
	}
	want := []int{256, 256, 88}
	for _, tc := range []struct {
		name     string
		transfer transfer
		fetched  []int
	}{
		{"fetched from the source", transfer{source: 0, target: 1, keys: keys}, want},
		{"entries in hand", transfer{source: -1, target: 1, entries: entries}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := &countingNode{}, &countingNode{}
			var ledger atomic.Uint64
			moved, failed := moveFleet(src, dst).move(context.Background(), []transfer{tc.transfer}, &ledger)
			if !reflect.DeepEqual(src.fetches, tc.fetched) || !reflect.DeepEqual(dst.ingests, want) {
				t.Fatalf("fetch sizes %v, ingest sizes %v, want %v and %v", src.fetches, dst.ingests, tc.fetched, want)
			}
			if moved != 600 || ledger.Load() != 600 || len(failed) != 0 {
				t.Fatalf("moved %d, ledger %d, failed %v, want 600, 600, none", moved, ledger.Load(), failed)
			}
		})
	}
}

// TestMoveFailedFetchEndsOnlyItsTransfer: a struggling source costs its own
// keys this round and nothing else.
func TestMoveFailedFetchEndsOnlyItsTransfer(t *testing.T) {
	sick := &countingNode{fetchErr: errors.New("injected fetch fault")}
	well, dst := &countingNode{}, &countingNode{}
	var ledger atomic.Uint64
	moved, failed := moveFleet(sick, well, dst).move(context.Background(), []transfer{
		{source: 0, target: 2, keys: manyKeys(600, 1)},
		{source: 1, target: 2, keys: manyKeys(10, 2)},
	}, &ledger)
	if !reflect.DeepEqual(sick.fetches, []int{256}) {
		t.Fatalf("failing source was asked %v, want one chunk and no more", sick.fetches)
	}
	if !reflect.DeepEqual(dst.ingests, []int{10}) || moved != 10 || ledger.Load() != 10 {
		t.Fatalf("target ingested %v (moved %d, ledger %d), want the healthy source's 10", dst.ingests, moved, ledger.Load())
	}
	if len(failed) != 0 {
		t.Fatalf("a source fault was reported as a target fault: %v", failed)
	}
}

// TestMoveFailedIngestStopsItsTarget: the target that refused a chunk gets
// nothing further — not the rest of that transfer, not the next transfer —
// and is the one reported; other targets are untouched.
func TestMoveFailedIngestStopsItsTarget(t *testing.T) {
	src, other := &countingNode{}, &countingNode{}
	sick, well := &countingNode{ingestFailsAt: 2}, &countingNode{}
	var ledger atomic.Uint64
	moved, failed := moveFleet(src, other, sick, well).move(context.Background(), []transfer{
		{source: 0, target: 2, keys: manyKeys(600, 1)},
		{source: 1, target: 2, keys: manyKeys(10, 2)},
		{source: 0, target: 3, keys: manyKeys(300, 3)},
	}, &ledger)
	if !reflect.DeepEqual(sick.ingests, []int{256, 256}) || len(other.fetches) != 0 {
		t.Fatalf("failed target saw ingests %v and the next source %v fetches, want [256 256] and none", sick.ingests, other.fetches)
	}
	if !reflect.DeepEqual(failed, map[int]bool{2: true}) {
		t.Fatalf("failed = %v, want only node 2", failed)
	}
	if !reflect.DeepEqual(well.ingests, []int{256, 44}) || moved != 256+300 || ledger.Load() != 256+300 {
		t.Fatalf("healthy target ingested %v, moved %d, ledger %d", well.ingests, moved, ledger.Load())
	}
}

// TestMoveLedgerIsWhatIngestReported: the ledger counts new copies, not
// entries sent — a target that already held some reports fewer.
func TestMoveLedgerIsWhatIngestReported(t *testing.T) {
	keys := manyKeys(300, 1)
	dst := &countingNode{held: keySet(keys[:120]...)}
	var ledger atomic.Uint64
	moved, _ := moveFleet(&countingNode{}, dst).move(context.Background(),
		[]transfer{{source: 0, target: 1, keys: keys}}, &ledger)
	if moved != 180 || ledger.Load() != 180 || dst.reported != 180 {
		t.Fatalf("moved %d, ledger %d, ingest reported %d, want 180 each", moved, ledger.Load(), dst.reported)
	}
}
