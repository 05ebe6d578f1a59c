package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ansor"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// wireExchange is one real batch and its answer: n Ansor sketches of
// ConvGroup(tiny, 0) on RISC-V — the benchmark's pool candidates — simulated
// by an in-process node. Built once; callers must not modify it.
func wireExchange(t testing.TB, n int) (*SimulateRequest, *SimulateResponse) {
	t.Helper()
	exchangeOnce.Do(func() {
		spec := ConvGroupSpec(te.ScaleTiny, 0)
		factory, err := spec.Factory()
		if err != nil {
			exchangeErr = err
			return
		}
		sketches, err := ansor.RandomSketches(factory, 32, num.NewRNG(19))
		if err != nil {
			exchangeErr = err
			return
		}
		exchangeReq = &SimulateRequest{Arch: "riscv", Workload: spec}
		for _, s := range sketches {
			exchangeReq.Candidates = append(exchangeReq.Candidates, Candidate{Steps: s.Steps})
		}
		srv, err := NewServer(Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		if err != nil {
			exchangeErr = err
			return
		}
		defer srv.Close()
		exchangeResp, exchangeErr = srv.Simulate(context.Background(), exchangeReq)
	})
	if exchangeErr != nil {
		t.Fatal(exchangeErr)
	}
	req := *exchangeReq
	req.Candidates = req.Candidates[:n]
	return &req, &SimulateResponse{Results: exchangeResp.Results[:n]}
}

var (
	exchangeOnce sync.Once
	exchangeReq  *SimulateRequest
	exchangeResp *SimulateResponse
	exchangeErr  error
)

// checkWire holds one decoder and one encoder to the contract on one input.
// The decoder either declines and leaves its target as it was, or returns
// what encoding/json's streaming decoder returns for the same bytes, which
// then must not have failed. Whatever json decoded, the encoder either
// declines or appends json.Marshal's bytes. It reports whether the cursor
// decoder took the input, and json's value and verdict.
func checkWire[T any](t *testing.T, data []byte, sentinel T,
	decode func([]byte, *T) bool, encode func([]byte, *T) ([]byte, bool)) (fast bool, want T, jsonErr error) {
	t.Helper()
	got := sentinel
	fast = decode(data, &got)
	jsonErr = json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	switch {
	case !fast && !reflect.DeepEqual(got, sentinel):
		t.Fatalf("decoder declined %q but left %+v behind", data, got)
	case fast && jsonErr != nil:
		t.Fatalf("decoder accepted %q, which encoding/json rejects: %v", data, jsonErr)
	case fast && !reflect.DeepEqual(got, want):
		t.Fatalf("decoding %q:\n fast %+v\n json %+v", data, got, want)
	}
	if jsonErr == nil {
		ref, err := json.Marshal(&want)
		if enc, ok := encode([]byte("prefix"), &want); ok {
			if err != nil || string(enc) != "prefix"+string(ref) {
				t.Fatalf("encoding %+v:\n fast %s\n json %s (%v)", want, enc, ref, err)
			}
		}
	}
	return fast, want, jsonErr
}

func checkRequest(t *testing.T, data []byte) (bool, SimulateRequest, error) {
	t.Helper()
	sentinel := SimulateRequest{Arch: "untouched", Candidates: []Candidate{{}}}
	return checkWire(t, data, sentinel, decodeSimulateRequest, appendSimulateRequest)
}

func checkResponse(t *testing.T, data []byte) (bool, SimulateResponse, error) {
	t.Helper()
	sentinel := SimulateResponse{Results: []Result{{Err: "untouched"}}}
	return checkWire(t, data, sentinel, decodeSimulateResponse, appendSimulateResponse)
}

// FuzzSimulateWire is the contract of wire.go on arbitrary bytes: both
// decoders against encoding/json, both encoders against json.Marshal on
// whatever decoded, and CacheKey over every decoded candidate (the request
// body is the one place step logs enter from outside). Seeds are the files
// under testdata/fuzz/FuzzSimulateWire and one real exchange.
func FuzzSimulateWire(f *testing.F) {
	req, resp := wireExchange(f, 2)
	for _, v := range []any{req, resp} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, req, err := checkRequest(t, data)
		if err == nil {
			for _, c := range req.Candidates {
				CacheKey(isa.Arch(req.Arch), fixedHierarchy(), req.Workload, c.Steps)
			}
		}
		checkResponse(t, data)
	})
}

// TestWireMatchesEncodingJSON is the differential on a real exchange: encode
// bytes equal json.Marshal's, decode equals json's, both on the fast path —
// and then every position of the first 600 bytes of each body is overwritten,
// deleted and padded, which the decoders must either refuse or read as json
// does.
func TestWireMatchesEncodingJSON(t *testing.T) {
	req, resp := wireExchange(t, 32)
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	respJSON, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if enc, ok := appendSimulateRequest(nil, req); !ok || !bytes.Equal(enc, reqJSON) {
		t.Fatalf("request encoder (ok=%v):\n fast %s\n json %s", ok, enc, reqJSON)
	}
	if enc, ok := appendSimulateResponse(nil, resp); !ok || !bytes.Equal(enc, respJSON) {
		t.Fatalf("response encoder (ok=%v):\n fast %s\n json %s", ok, enc, respJSON)
	}
	if fast, got, _ := checkRequest(t, reqJSON); !fast || !reflect.DeepEqual(&got, req) {
		t.Fatalf("request did not survive the fast path (fast=%v)", fast)
	}
	if fast, got, _ := checkResponse(t, respJSON); !fast || !reflect.DeepEqual(&got, resp) {
		t.Fatalf("response did not survive the fast path (fast=%v)", fast)
	}
	// The bodies are read into pooled buffers, which the next request
	// overwrites: nothing decoded may still point into them.
	var gotReq SimulateRequest
	var gotResp SimulateResponse
	reqBuf, respBuf := append([]byte(nil), reqJSON...), append([]byte(nil), respJSON...)
	if !decodeSimulateRequest(reqBuf, &gotReq) || !decodeSimulateResponse(respBuf, &gotResp) {
		t.Fatal("fast path declined a canonical exchange")
	}
	for _, buf := range [][]byte{reqBuf, respBuf} {
		for i := range buf {
			buf[i] = 'x'
		}
	}
	if !reflect.DeepEqual(&gotReq, req) || !reflect.DeepEqual(&gotResp, resp) {
		t.Fatal("a decoded value changed when its input buffer was overwritten")
	}

	// Mutations run on a two-candidate exchange: the first 600 bytes then
	// reach through the header, a whole candidate (or result) and the
	// boundary to the next.
	req, resp = wireExchange(t, 2)
	reqJSON, _ = json.Marshal(req)
	respJSON, _ = json.Marshal(resp)
	subst := []byte(`01-.eE"\,:{}[] ntx<` + "\x00\x7f\x80\n")
	for _, body := range [][]byte{reqJSON, respJSON} {
		check := func(data []byte) { checkRequest(t, data); checkResponse(t, data) }
		for i := 0; i < len(body) && i < 600; i++ {
			mut := append([]byte(nil), body...)
			for _, ch := range subst {
				mut[i] = ch
				check(mut)
			}
			check(append(append([]byte(nil), body[:i]...), body[i+1:]...))
			check(append(append(append([]byte(nil), body[:i]...), ' '), body[i:]...))
		}
	}
}

const (
	wireHead = `{"arch":"riscv","workload":{"kind":"conv_group","scale":"tiny","group":1},"candidates":`
	wireStat = `{"Arch":"riscv","Instr":[1,2,3,4,5,6,7,8],"Total":36,"Loads":4,"Stores":2,"Branches":8,"LoopExits":1,"SinkEvents":9,"Caches":[{"Name":"L1D","Stats":{"Hits":[1,2],"Misses":[3,4],"Repl":[5,6],"Writebacks":7}}],"SimWallSeconds":`
)

// TestWireEdgeForms pins, form by form, which path reads a body — and
// through checkWire that the fast path's answer is encoding/json's. wantErr
// marks bodies both paths must reject (the handler answers them 400 as it
// always did, now by way of the fallback).
func TestWireEdgeForms(t *testing.T) {
	step := func(fields string) string { return wireHead + `[{"steps":[{` + fields + `}]}]}` }
	okStep := `"Kind":"split","Leaf":0,"Factor":4,"Perm":null,"Ann":0`
	requests := []struct {
		name, body    string
		fast, wantErr bool
	}{
		{"candidates null", wireHead + `null}`, true, false},
		{"candidates empty", wireHead + `[]}`, true, false},
		{"steps null", wireHead + `[{"steps":null}]}`, true, false},
		{"steps empty", wireHead + `[{"steps":[]},{"steps":[]}]}`, true, false},
		{"perm null", step(okStep), true, false},
		{"perm empty", step(`"Kind":"reorder","Leaf":0,"Factor":0,"Perm":[],"Ann":0`), true, false},
		{"perm values", step(`"Kind":"reorder","Leaf":0,"Factor":0,"Perm":[2,0,1],"Ann":0`), true, false},
		{"negative leaf", step(`"Kind":"split","Leaf":-3,"Factor":4,"Perm":null,"Ann":-1`), true, false},
		{"unknown kind", step(`"Kind":"fuse","Leaf":1,"Factor":2,"Perm":[1],"Ann":3`), true, false},
		{"min int", step(`"Kind":"split","Leaf":-9223372036854775808,"Factor":9223372036854775807,"Perm":null,"Ann":0`), true, false},
		{"matmul dims", `{"arch":"arm","workload":{"kind":"matmul","dims":[8,16,24]},"candidates":null}`, true, false},
		{"empty kind", `{"arch":"","workload":{"kind":""},"candidates":null}`, true, false},
		{"trailing newline", wireHead + "null}\n", true, false},
		{"trailing blanks", wireHead + "null} \t\r\n", true, false},

		{"trailing garbage", wireHead + `null}x`, false, false},
		{"second value", wireHead + `null}{}`, false, false},
		{"leading space", " " + wireHead + `null}`, false, false},
		{"pretty", "{\n  \"arch\": \"riscv\",\n  \"workload\": {\"kind\": \"conv_group\", \"scale\": \"tiny\", \"group\": 1},\n  \"candidates\": [{\"steps\": []}]\n}", false, false},
		{"reordered", `{"candidates":null,"arch":"riscv","workload":{"kind":"conv_group","scale":"tiny","group":1}}`, false, false},
		{"reordered step", step(`"Leaf":0,"Kind":"split","Factor":4,"Perm":null,"Ann":0`), false, false},
		{"missing field", step(`"Kind":"split","Leaf":0,"Factor":4,"Perm":null`), false, false},
		{"unknown field", step(okStep + `,"Extra":1`), false, false},
		{"duplicate field", step(okStep + `,"Ann":2`), false, false},
		{"lower-case name", step(`"kind":"split","Leaf":0,"Factor":4,"Perm":null,"Ann":0`), false, false},
		{"explicit zero group", `{"arch":"riscv","workload":{"kind":"conv_group","scale":"tiny","group":0},"candidates":null}`, false, false},
		{"explicit empty scale", `{"arch":"riscv","workload":{"kind":"conv_group","scale":""},"candidates":null}`, false, false},
		{"explicit empty dims", `{"arch":"riscv","workload":{"kind":"matmul","dims":[]},"candidates":null}`, false, false},
		{"escaped arch", `{"arch":"ri\u0073cv","workload":{"kind":""},"candidates":null}`, false, false},
		{"non-ascii arch", `{"arch":"é","workload":{"kind":""},"candidates":null}`, false, false},
		{"minus zero", step(`"Kind":"split","Leaf":-0,"Factor":4,"Perm":null,"Ann":0`), false, false},
		{"leading zero", step(`"Kind":"split","Leaf":01,"Factor":4,"Perm":null,"Ann":0`), false, true},
		{"fraction", step(`"Kind":"split","Leaf":1.0,"Factor":4,"Perm":null,"Ann":0`), false, true},
		{"exponent", step(`"Kind":"split","Leaf":1e3,"Factor":4,"Perm":null,"Ann":0`), false, true},
		{"two to the 64", step(`"Kind":"split","Leaf":18446744073709551616,"Factor":4,"Perm":null,"Ann":0`), false, true},
		{"two to the 63", step(`"Kind":"split","Leaf":9223372036854775808,"Factor":4,"Perm":null,"Ann":0`), false, true},
		{"truncated", wireHead + `[{"steps":[{` + okStep, false, true},
		{"empty body", ``, false, true},
	}
	for _, tc := range requests {
		fast, _, err := checkRequest(t, []byte(tc.body))
		if fast != tc.fast || (err != nil) != tc.wantErr {
			t.Errorf("request %q: fast path %v (want %v), json error %v (want one: %v)", tc.name, fast, tc.fast, err, tc.wantErr)
		}
	}

	result := func(r string) string { return `{"results":[` + r + `]}` }
	responses := []struct {
		name, body    string
		fast, wantErr bool
	}{
		{"results null", `{"results":null}`, true, false},
		{"results empty", `{"results":[]}`, true, false},
		{"empty result", result(`{}`), true, false},
		{"hit only", result(`{"cache_hit":true}`), true, false},
		{"err only", result(`{"err":"split factor 3 does not divide 8"}`), true, false},
		{"hit and err", result(`{"cache_hit":true,"err":"boom"},{}`), true, false},
		{"stats", result(`{"stats":` + wireStat + `0.001638891},"cache_hit":true}`), true, false},
		{"stats and err", result(`{"stats":` + wireStat + `0},"err":"both"}`), true, false},
		{"caches null", result(`{"stats":` + strings.Replace(wireStat, `[{"Name":"L1D","Stats":{"Hits":[1,2],"Misses":[3,4],"Repl":[5,6],"Writebacks":7}}]`, `null`, 1) + `0}}`), true, false},
		{"caches empty", result(`{"stats":` + strings.Replace(wireStat, `[{"Name":"L1D","Stats":{"Hits":[1,2],"Misses":[3,4],"Repl":[5,6],"Writebacks":7}}]`, `[]`, 1) + `0}}`), true, false},
		{"wall 1e-7", result(`{"stats":` + wireStat + `1e-7}}`), true, false},
		{"wall 1e21", result(`{"stats":` + wireStat + `1e+21}}`), true, false},
		{"wall negative", result(`{"stats":` + wireStat + `-2.5}}`), true, false},
		{"max uint64", result(`{"stats":` + strings.Replace(wireStat, `"Total":36`, `"Total":18446744073709551615`, 1) + `0}}`), true, false},

		{"cache_hit false", result(`{"cache_hit":false}`), false, false},
		{"stats null", result(`{"stats":null}`), false, false},
		{"err empty", result(`{"err":""}`), false, false},
		{"err before hit", result(`{"err":"x","cache_hit":true}`), false, false},
		{"err with escaped quote", result(`{"err":"unknown kind \"fuse\""}`), false, false},
		{"err with backslash", result(`{"err":"a\\b"}`), false, false},
		{"err with raw <", result(`{"err":"1 < 2"}`), false, false},
		{"err with escaped <", result(`{"err":"1 \u003c 2"}`), false, false},
		{"err with é", result(`{"err":"café"}`), false, false},
		{"seven classes", result(`{"stats":` + strings.Replace(wireStat, `[1,2,3,4,5,6,7,8]`, `[1,2,3,4,5,6,7]`, 1) + `0}}`), false, false},
		{"nine classes", result(`{"stats":` + strings.Replace(wireStat, `[1,2,3,4,5,6,7,8]`, `[1,2,3,4,5,6,7,8,9]`, 1) + `0}}`), false, false},
		{"wall overflow", result(`{"stats":` + wireStat + `1e999}}`), false, true},
		{"wall leading zero", result(`{"stats":` + wireStat + `00.5}}`), false, true},
		{"wall bare point", result(`{"stats":` + wireStat + `1.}}`), false, true},
		{"negative counter", result(`{"stats":` + strings.Replace(wireStat, `"Total":36`, `"Total":-1`, 1) + `0}}`), false, true},
		{"counter 2 to the 64", result(`{"stats":` + strings.Replace(wireStat, `"Total":36`, `"Total":18446744073709551616`, 1) + `0}}`), false, true},
	}
	for _, tc := range responses {
		fast, _, err := checkResponse(t, []byte(tc.body))
		if fast != tc.fast || (err != nil) != tc.wantErr {
			t.Errorf("response %q: fast path %v (want %v), json error %v (want one: %v)", tc.name, fast, tc.fast, err, tc.wantErr)
		}
	}
}

// TestWireEncoderForms is the encoding half of the table: which values the
// append encoders take, each compared byte for byte with json.Marshal, and
// which they leave to it.
func TestWireEncoderForms(t *testing.T) {
	stats := func(wall float64) *sim.Stats {
		return &sim.Stats{Arch: isa.ARM, Total: 3, Caches: []sim.LevelStats{{Name: "L2"}}, SimWallSeconds: wall}
	}
	var results []Result
	for _, wall := range []float64{0, 1e-7, 1e21, 0.001638891, 1e-6, 9.99e20, 123456789.125, -3e-9, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		results = append(results, Result{Stats: stats(wall)})
	}
	results = append(results, Result{}, Result{CacheHit: true}, Result{Err: "plain"},
		Result{Stats: &sim.Stats{}}, Result{Stats: &sim.Stats{Caches: []sim.LevelStats{}}, CacheHit: true, Err: "all three"})
	fastResponses := []*SimulateResponse{{}, {Results: []Result{}}, {Results: results}}
	for i, resp := range fastResponses {
		ref, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if enc, ok := appendSimulateResponse(nil, resp); !ok || !bytes.Equal(enc, ref) {
			t.Errorf("response %d (ok=%v):\n fast %s\n json %s", i, ok, enc, ref)
		}
		checkResponse(t, ref)
	}
	for _, e := range []string{`a"b`, `a\b`, "1 < 2", "a>b", "a&b", "café", "tab\t", "\x7f", "\xff"} {
		if _, ok := appendSimulateResponse(nil, &SimulateResponse{Results: []Result{{Err: e}}}); ok {
			t.Errorf("response encoder took err %q, which json escapes", e)
		}
	}
	for _, wall := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendSimulateResponse(nil, &SimulateResponse{Results: []Result{{Stats: stats(wall)}}}); ok {
			t.Errorf("response encoder took SimWallSeconds %v, which json refuses", wall)
		}
	}

	fastRequests := []*SimulateRequest{
		{},
		{Arch: "x86", Workload: MatMulSpec(8, 16, 24), Candidates: []Candidate{}},
		{Arch: "x86", Workload: WorkloadSpec{Kind: "conv_group", Dims: []int{}}, Candidates: []Candidate{{}, {Steps: []schedule.Step{}}}},
		{Arch: "arm", Workload: ConvGroupSpec(te.ScaleTiny, 0), Candidates: []Candidate{{Steps: []schedule.Step{
			{Kind: "split", Leaf: -1, Factor: math.MinInt},
			{Kind: "reorder", Perm: []int{}},
			{Kind: "reorder", Perm: []int{1, 0}},
			{Kind: "fuse", Ann: schedule.AnnParallel},
		}}}},
	}
	for i, req := range fastRequests {
		ref, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if enc, ok := appendSimulateRequest(nil, req); !ok || !bytes.Equal(enc, ref) {
			t.Errorf("request %d (ok=%v):\n fast %s\n json %s", i, ok, enc, ref)
		}
		if fast, _, _ := checkRequest(t, ref); !fast {
			t.Errorf("request %d: the decoder declined the encoder's output %s", i, ref)
		}
	}
	for _, req := range []*SimulateRequest{
		{Arch: `ri"scv`},
		{Workload: WorkloadSpec{Kind: "é"}},
		{Workload: WorkloadSpec{Scale: "<"}},
		{Candidates: []Candidate{{Steps: []schedule.Step{{Kind: "a\\b"}}}}},
	} {
		if _, ok := appendSimulateRequest(nil, req); ok {
			t.Errorf("request encoder took %+v, which json escapes", req)
		}
	}
}

// echoBackend answers every batch with canned results and keeps the request
// it was handed, so a test can see both directions of the wire.
type echoBackend struct {
	Backend
	got     *SimulateRequest
	results []Result
}

func (b *echoBackend) Simulate(_ context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	b.got = req
	return &SimulateResponse{Results: b.results}, nil
}

// TestWireFallbackThroughHandler sends what the fast path declines through
// the real client and the real handler: a request and a response whose
// strings need escaping, and a pretty-printed body as curl would post it.
// The values that arrive are the values sent.
func TestWireFallbackThroughHandler(t *testing.T) {
	backend := &echoBackend{results: []Result{
		{Err: `schedule: unknown step kind "fuse"`},
		{Stats: &sim.Stats{Arch: isa.RISCV, Total: 7, Caches: []sim.LevelStats{{Name: "L1D"}}, SimWallSeconds: 1e-7}, CacheHit: true},
	}}
	hs := httptest.NewServer(backendHandler(backend, newTelemetry(0, nil), false))
	defer hs.Close()

	req := &SimulateRequest{Arch: `ri"scv`, Workload: WorkloadSpec{Kind: "café", Dims: []int{1}},
		Candidates: []Candidate{{Steps: []schedule.Step{{Kind: "a<b", Perm: []int{}}}}, {}}}
	resp, err := NewClient(hs.URL).Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(backend.got, req) {
		t.Errorf("request through the fallback:\n got %+v\nwant %+v", backend.got, req)
	}
	if !reflect.DeepEqual(resp.Results, backend.results) {
		t.Errorf("response through the fallback:\n got %+v\nwant %+v", resp.Results, backend.results)
	}

	pretty := "{\n\t\"candidates\": [ {\"steps\": [ {\"Kind\": \"split\", \"Factor\": 4} ]}, {\"steps\": null} ],\n\t\"workload\": {\"kind\": \"conv_group\", \"scale\": \"tiny\"},\n\t\"arch\": \"riscv\"\n}\n"
	httpResp, err := http.Post(hs.URL+"/v1/simulate", "application/json", strings.NewReader(pretty))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	want := &SimulateRequest{Arch: "riscv", Workload: WorkloadSpec{Kind: "conv_group", Scale: "tiny"},
		Candidates: []Candidate{{Steps: []schedule.Step{{Kind: "split", Factor: 4}}}, {}}}
	if httpResp.StatusCode != http.StatusOK || !reflect.DeepEqual(backend.got, want) {
		t.Errorf("pretty-printed body: status %d, decoded %+v, want %+v", httpResp.StatusCode, backend.got, want)
	}
	// The escaped err left the server as encoding/json writes it.
	if ref, _ := json.Marshal(&SimulateResponse{Results: backend.results}); string(body) != string(ref)+"\n" {
		t.Errorf("response body:\n got %s\nwant %s", body, ref)
	}
}

// endlessBody yields n bytes of a JSON string that never closes, without
// holding them.
type endlessBody struct{ n int64 }

func (b *endlessBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	for i := range p {
		p[i] = '"'
	}
	b.n -= int64(len(p))
	return len(p), nil
}

// TestRequestBodyBound covers the size bound on request bodies: a declared
// length over the limit is refused before a byte is read, an undeclared
// (chunked) body is cut off at the limit, both with 413; and a declared
// length never reserves more than maxPooledBuf ahead of the bytes.
func TestRequestBodyBound(t *testing.T) {
	h := backendHandler(&echoBackend{}, newTelemetry(0, nil), false)
	declared := httptest.NewRequest(http.MethodPost, "/v1/simulate", &endlessBody{n: 16})
	declared.ContentLength = maxRequestBytes + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, declared)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Errorf("declared %d bytes: status %d body %s, want 413", declared.ContentLength, rec.Code, rec.Body)
	}

	const limit = 1 << 10
	for _, n := range []int64{limit + 1, 8 * limit} {
		chunked := httptest.NewRequest(http.MethodPost, "/v1/simulate", &endlessBody{n: n})
		chunked.ContentLength = -1
		rec = httptest.NewRecorder()
		if decodeBody(rec, chunked, &SimulateRequest{}, limit) || rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("chunked body of %d bytes under a %d limit: status %d body %s, want 413", n, limit, rec.Code, rec.Body)
		}
	}
	atLimit := httptest.NewRequest(http.MethodPost, "/v1/simulate", &endlessBody{n: limit})
	rec = httptest.NewRecorder()
	if decodeBody(rec, atLimit, &SimulateRequest{}, limit) || rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body of exactly the limit: status %d, want 400 from the decoder", rec.Code)
	}

	buf, err := readBody(nil, &endlessBody{n: 100}, 1<<40)
	if err != nil || len(buf) != 100 || cap(buf) > maxPooledBuf {
		t.Errorf("readBody with a declared terabyte: %d bytes, cap %d, err %v; want 100 bytes in at most %d", len(buf), cap(buf), err, maxPooledBuf)
	}
	buf, err = readBody(make([]byte, 0, 8), &endlessBody{n: 5000}, -1)
	if err != nil || len(buf) != 5000 {
		t.Errorf("readBody without a declared length: %d bytes, err %v; want 5000", len(buf), err)
	}
}

// fmtCacheKey is CacheKey as it was before keyPrefix: the preimage every
// stored key and every replica's ring position was computed from, kept here
// as the reference the append-built preimage must reproduce bit for bit.
func fmtCacheKey(arch isa.Arch, caches cache.HierarchyConfig, wl WorkloadSpec, steps []schedule.Step) Key {
	var sig string
	switch wl.Kind {
	case "", "conv_group":
		sig = fmt.Sprintf("conv_group/%s/%d", wl.Scale, wl.Group)
	case "matmul":
		sig = fmt.Sprintf("matmul/%v", wl.Dims)
	default:
		sig = fmt.Sprintf("%s/%s/%d/%v", wl.Kind, wl.Scale, wl.Group, wl.Dims)
	}
	h := sha256.New()
	fmt.Fprintf(h, "simsvc:v1\x00%s\x00", arch)
	for _, lv := range []cache.Config{caches.L1D, caches.L1I, caches.L2, caches.L3} {
		fmt.Fprintf(h, "%s:%d:%d:%d\x00", lv.Name, lv.SizeBytes, lv.LineBytes, lv.Assoc)
	}
	fmt.Fprintf(h, "%s\x00", sig)
	h.Write(schedule.Canonical(steps))
	var k Key
	h.Sum(k[:0])
	return k
}

// TestCacheKeyMatchesFormattedPreimage samples (arch, geometry, spec, steps)
// — conv groups, matmul shapes, kinds the service does not know, step logs
// from one step to longer than candidateKey's stack buffer — and holds
// CacheKey, and the prefix/candidate split the batch paths use, to the
// fmt-built key.
func TestCacheKeyMatchesFormattedPreimage(t *testing.T) {
	rng := num.NewRNG(23)
	archs := append(isa.Archs(), "", "sparc64")
	kinds := []string{"", "conv_group", "matmul", "fuse", "conv/group"}
	scales := []string{"", "tiny", "small", "paper", "a/b"}
	stepKinds := []string{"split", "reorder", "annotate", "fuse", ""}
	for n := 0; n < 300; n++ {
		arch := archs[rng.Intn(len(archs))]
		caches := fixedHierarchy()
		if n%2 == 0 && arch != "" && arch != "sparc64" {
			caches = hw.Lookup(arch).Caches
		}
		if n%7 == 0 {
			caches.L3 = cache.Config{Name: "L3", SizeBytes: rng.Intn(1 << 24), LineBytes: 64, Assoc: 1 + rng.Intn(16)}
		}
		wl := WorkloadSpec{Kind: kinds[rng.Intn(len(kinds))], Scale: scales[rng.Intn(len(scales))], Group: rng.Intn(7) - 1}
		if d := rng.Intn(5); d > 0 {
			wl.Dims = make([]int, d-1)
			for i := range wl.Dims {
				wl.Dims[i] = rng.Intn(64) - 4
			}
		}
		steps := make([]schedule.Step, rng.Intn(12)*rng.Intn(12))
		for i := range steps {
			steps[i] = schedule.Step{Kind: stepKinds[rng.Intn(len(stepKinds))], Leaf: rng.Intn(9) - 1,
				Factor: rng.Intn(1 << 20), Ann: schedule.Annotation(rng.Intn(5))}
			if rng.Intn(2) == 0 {
				steps[i].Perm = rng.Perm(rng.Intn(8))
			}
		}
		want := fmtCacheKey(arch, caches, wl, steps)
		if got := CacheKey(arch, caches, wl, steps); got != want {
			t.Fatalf("sample %d: CacheKey(%q, %+v, %+v, %d steps) = %x, formatted preimage gives %x", n, arch, caches, wl, len(steps), got, want)
		}
		if got := candidateKey(keyPrefix(nil, arch, caches, wl), steps); got != want {
			t.Fatalf("sample %d: prefix + candidate key = %x, formatted preimage gives %x", n, got, want)
		}
		if got, ref := wl.signature(), string(wl.appendSignature(nil)); got != ref {
			t.Fatalf("sample %d: signature %q != %q", n, got, ref)
		}
	}
}

// TestWireAllocations gates the two counts this codec exists to lower, both
// independent of the host: allocations to decode one 32-candidate exchange
// (1,101 through encoding/json) and to serve a 32-candidate batch of hits
// in process (442 while every key was formatted).
func TestWireAllocations(t *testing.T) {
	req, resp := wireExchange(t, 32)
	reqJSON, _ := json.Marshal(req)
	respJSON, _ := json.Marshal(resp)
	decode := testing.AllocsPerRun(50, func() {
		var rq SimulateRequest
		var rs SimulateResponse
		if !decodeSimulateRequest(reqJSON, &rq) || !decodeSimulateResponse(respJSON, &rs) {
			t.Fatal("fast path declined a canonical exchange")
		}
	})
	if decode > 200 {
		t.Errorf("decoding a 32-candidate exchange: %.0f allocations, want at most 200", decode)
	}
	var buf []byte
	encode := testing.AllocsPerRun(50, func() {
		buf, _ = appendSimulateRequest(buf[:0], req)
		buf, _ = appendSimulateResponse(buf[:0], resp)
	})
	if encode > 0 {
		t.Errorf("encoding into a warm buffer: %.0f allocations, want none", encode)
	}

	srv := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 4})
	ctx := context.Background()
	if _, err := srv.Simulate(ctx, req); err != nil {
		t.Fatal(err)
	}
	hits := testing.AllocsPerRun(50, func() {
		if _, err := srv.Simulate(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if hits > 32 {
		t.Errorf("serving 32 hits in process: %.0f allocations, want at most 32", hits)
	}
	t.Logf("allocations: decode %.0f, encode %.0f, hit batch %.0f", decode, encode, hits)
}

// BenchmarkWire prices the codec on the exchange TestWireAllocations counts:
// one op decodes (or encodes) the 32-candidate request and its response.
func BenchmarkWire(b *testing.B) {
	req, resp := wireExchange(b, 32)
	reqJSON, _ := json.Marshal(req)
	respJSON, _ := json.Marshal(resp)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var rq SimulateRequest
			var rs SimulateResponse
			if !decodeSimulateRequest(reqJSON, &rq) || !decodeSimulateResponse(respJSON, &rs) {
				b.Fatal("fast path declined a canonical exchange")
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = appendSimulateRequest(buf[:0], req)
			buf, _ = appendSimulateResponse(buf[:0], resp)
		}
	})
}
