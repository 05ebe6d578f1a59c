package loadgen

import (
	"testing"
	"time"
)

// FuzzParseTenants feeds the -tenants flag arbitrary bytes. Neither the
// parser nor the Validate pass `simtune loadgen` runs on its output may
// panic, and a spec the parser accepts names every tenant it returns. Seeds
// are the files under testdata/fuzz/FuzzParseTenants.
func FuzzParseTenants(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		tenants, err := ParseTenants(spec)
		if err != nil {
			return
		}
		for i, tn := range tenants {
			if tn.Name == "" {
				t.Fatalf("ParseTenants(%q) accepted tenant %d without a name", spec, i)
			}
		}
		cfg := Config{Duration: time.Second, Tenants: tenants}
		_ = cfg.Validate() // rejecting is fine; panicking is not
	})
}
