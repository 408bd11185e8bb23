package obs

import (
	"io"
	"sort"
)

// NodeMetrics is one peer's /metrics scrape handed to FederateMetrics.
// A non-nil Err marks the node stale: its text is ignored and the
// federated exposition carries a heteromap_federation_stale marker for
// it instead of failing the whole scrape.
type NodeMetrics struct {
	Node string
	Text string
	Err  error
}

// federatedFamily accumulates one metric family across nodes: the
// cluster-summed series (counters and histogram components) in
// first-appearance order, so merged histogram buckets keep their le
// ordering, then every node's series in node order.
type federatedFamily struct {
	Family
	sums    []Sample
	sumAt   map[string]int // series text -> index in sums
	perNode []Sample
}

// FederateMetrics merges per-node /metrics scrapes into one cluster
// exposition: every series is re-emitted with a leading node=<addr>
// label, counters additionally get a cluster-summed series without the
// node label, histograms get bucket-merged cluster series (buckets,
// sum and count summed per label set), and gauges (and untyped series
// like exemplars) stay strictly per-node — summing a gauge across
// nodes is a lie. Stale nodes contribute only a
// heteromap_federation_stale{node=...} 1 marker; healthy nodes carry
// the marker at 0 so coverage is visible. Pages are read by ParseText
// and the result is written by WriteText; a write error is dropped, as
// the caller is an HTTP response whose client has gone.
func FederateMetrics(w io.Writer, nodes []NodeMetrics) {
	sorted := make([]NodeMetrics, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })

	stale := Family{Name: "heteromap_federation_stale", Help: "Peers whose /metrics scrape failed this federation pass.", Type: "gauge"}
	for _, n := range sorted {
		stale.Bool(n.Err != nil, Label{"node", n.Node})
	}
	var order []*federatedFamily
	fams := map[string]*federatedFamily{}
	var key []byte
	for _, n := range sorted {
		if n.Err != nil {
			continue
		}
		// A federating scrape must not die on one odd series: ParseText
		// skips the line, and its error is not needed here.
		page, _ := ParseText(n.Text)
		for _, pf := range page {
			if len(pf.Samples) == 0 {
				continue
			}
			fam := fams[pf.Name]
			if fam == nil {
				fam = &federatedFamily{Family: Family{Name: pf.Name, Help: pf.Help, Type: pf.Type}, sumAt: map[string]int{}}
				if fam.Type == "" {
					fam.Type = "untyped"
				}
				fams[pf.Name] = fam
				order = append(order, fam)
			}
			summed := fam.Type == "counter" || fam.Type == "histogram"
			for _, s := range pf.Samples {
				if summed {
					key = appendSeries(key[:0], s.Name, s.Labels)
					if i, ok := fam.sumAt[string(key)]; ok {
						fam.sums[i].Value += s.Value
					} else {
						fam.sumAt[string(key)] = len(fam.sums)
						fam.sums = append(fam.sums, Sample{Name: s.Name, Labels: s.Labels, Value: s.Value})
					}
				}
				labels := append(make([]Label, 0, len(s.Labels)+1), Label{"node", n.Node})
				fam.perNode = append(fam.perNode, Sample{Name: s.Name, Labels: append(labels, s.Labels...), Value: s.Value})
			}
		}
	}
	out := make([]Family, 0, len(order)+1)
	out = append(out, stale)
	for _, fam := range order {
		fam.Samples = append(fam.sums, fam.perNode...)
		out = append(out, fam.Family)
	}
	_ = WriteText(w, out)
}
