package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// testdataCases binds each want-corpus module under testdata/ to the
// analyzer configuration its comments were written against. Function and
// package IDs refer to the corpus module (hotmod, errmod, ...), not to
// repro — each corpus is its own module so the analyzers see it exactly
// the way simtunelint sees the real tree.
var testdataCases = []struct {
	dir       string
	analyzers func() []*Analyzer
}{
	{"atomicmix", func() []*Analyzer { return []*Analyzer{AtomicMix()} }},
	{"hotpath", func() []*Analyzer {
		return []*Analyzer{HotPath(HotPathConfig{
			Roots: []HotRoot{
				{Name: "hotmod.Inner", NoLock: true},
				{Name: "hotmod.Serve"},
			},
			Stops: []string{"hotmod.Disk"},
		})}
	}},
	{"errtaxonomy", func() []*Analyzer {
		return []*Analyzer{ErrTaxonomy(ErrTaxonomyConfig{
			WirePackages: []string{"errmod/wire"},
		})}
	}},
	{"sleepseam", func() []*Analyzer {
		return []*Analyzer{SleepSeam(SleepSeamConfig{
			Packages:     []string{"sleepmod/svc"},
			AllowInTests: true,
		})}
	}},
	{"lockorder", func() []*Analyzer {
		return []*Analyzer{LockOrder(LockOrderConfig{
			OrderPairs: []OrderPair{{Mutex: "gateMu", Add: "inflight"}},
			Blocking:   []string{"time.Sleep"},
		})}
	}},
}

// TestWantCorpus checks every testdata module against its `// want "..."`
// comments: each want must be matched by a diagnostic on that line, and
// every diagnostic must be claimed by a want — the negative cases (the
// liveness-exception admit, the serve path's one batched lock, test sleeps)
// are asserted by their absence.
func TestWantCorpus(t *testing.T) {
	for _, tc := range testdataCases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			pkgs, err := Load(dir, "./...")
			if err != nil {
				t.Fatalf("load %s: %v", dir, err)
			}
			diags := Run(pkgs, tc.analyzers())
			wants := parseWants(t, dir)

			matched := make([]bool, len(diags))
			for _, w := range wants {
				found := false
				for i, d := range diags {
					if matched[i] || filepath.Base(d.Pos.Filename) != w.file || d.Pos.Line != w.line {
						continue
					}
					if !strings.Contains(d.Message, w.substr) {
						continue
					}
					matched[i] = true
					found = true
					break
				}
				if !found {
					t.Errorf("%s:%d: want %q: no matching diagnostic", w.file, w.line, w.substr)
				}
			}
			for i, d := range diags {
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

type wantComment struct {
	file   string // base name
	line   int
	substr string
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// parseWants scans every .go file under dir for `// want "substr"` markers.
func parseWants(t *testing.T, dir string) []wantComment {
	t.Helper()
	var wants []wantComment
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants = append(wants, wantComment{
					file:   filepath.Base(path),
					line:   i + 1,
					substr: m[1],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan wants in %s: %v", dir, err)
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments found under %s", dir)
	}
	return wants
}

// TestRepoTreeClean is the enforcement test: the default suite over the
// whole module must produce zero diagnostics. A failure here is either a
// real invariant violation (fix the code) or a new sanctioned pattern
// (teach the analyzer the waiver, with a corpus case proving it).
func TestRepoTreeClean(t *testing.T) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	root := strings.TrimSpace(string(out))
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	diags := Run(pkgs, DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("tree not clean: %s", d)
	}
	if len(diags) > 0 {
		t.Logf("%s diagnostics — run `go run ./cmd/simtunelint ./...` locally", strconv.Itoa(len(diags)))
	}
}
