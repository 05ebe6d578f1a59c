package lower

import (
	"fmt"
	"slices"
)

// DroppedDimEscape enumerates every point of p's loop nest at which every
// guard passes and, at each, evaluates every dimension Build left out of an
// access's padding check: of the preheader, hoisted, body and epilogue
// loads and the store. It describes the first such dimension found outside
// its tensor ("" for none) and counts the evaluations that belonged to
// padded loads.
func DroppedDimEscape(p *Program) (escape string, padded int) {
	sites := append(append([]*accessSite(nil), p.preheader...), p.bodyLoads...)
	sites = append(sites, p.epiLoads...)
	for _, lv := range p.levels {
		sites = append(sites, lv.Hoisted...)
	}
	sites = append(sites, &accessSite{Tensor: p.store.Tensor, Dims: p.store.Dims})
	vals := make([]int, len(p.levels))
	for {
		pass := true
		for _, lv := range p.levels {
			for _, g := range lv.Guards {
				pass = pass && g.Value.eval(vals) < g.Extent
			}
		}
		for _, site := range sites {
			for d, dim := range site.Dims {
				if !pass || slices.Contains(site.Checked, d) {
					continue
				}
				if site.CanOOB {
					padded++
				}
				if v := dim.eval(vals); v < 0 || v >= site.Tensor.Shape[d] {
					return fmt.Sprintf("%s dim %d = %d outside [0,%d) at loop values %v",
						site.Tensor.Name, d, v, site.Tensor.Shape[d], vals), padded
				}
			}
		}
		i := len(vals) - 1
		for ; i >= 0; i-- {
			if vals[i]++; vals[i] < p.levels[i].Extent {
				break
			}
			vals[i] = 0
		}
		if i < 0 {
			return "", padded
		}
	}
}
