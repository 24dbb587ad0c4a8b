package cluster

import (
	"dmt/internal/embeddings"
	"dmt/internal/serve"
	"dmt/internal/workload"
)

// keyTable holds the cache keys a run touches, derived once per distinct
// sample rather than once per touch: each sample's slot is its tower-output
// keys, then its embedding-row keys, every one namespaced as
// embeddings.LRUSet.Touch takes it. All replicas read the one table.
// Request i (in arrival order) reads its sample's slot through slot[i], so
// the table grows with the trace's distinct samples and its length, never
// with its largest sample id.
type keyTable struct {
	towers int      // a slot's first towers keys are tower keys, the rest row keys
	width  int      // keys per slot
	keys   []uint64 // slot j is keys[j*width:][:width]
	slot   []int32  // request i's slot
}

// newKeyTable keys reqs for a fleet priced by cost whose embedding rows
// fold onto embIDSpace ids per table (<= 0: no folding).
func newKeyTable(reqs []workload.Request, cost serve.CostModel, embIDSpace int) *keyTable {
	kt := &keyTable{
		towers: max(cost.Towers, 0),
		width:  max(cost.Towers, 0) + max(cost.EmbTables, 0),
		slot:   make([]int32, len(reqs)),
	}
	slots := make(map[int]int32)
	var samples []int
	for i := range reqs {
		j, ok := slots[reqs[i].Sample]
		if !ok {
			j = int32(len(samples))
			slots[reqs[i].Sample] = j
			samples = append(samples, reqs[i].Sample)
		}
		kt.slot[i] = j
	}
	kt.keys = make([]uint64, len(samples)*kt.width)
	for j, sample := range samples {
		sampleKeys(kt.keys[j*kt.width:(j+1)*kt.width], sample, kt.towers, embIDSpace)
	}
	return kt
}

// sampleKeys writes one sample's cache keys into dst: tower t's output
// under namespace t, then table f's row under namespace f. A row id is the
// sample's own id hashed per table and, when embIDSpace > 0, folded onto
// the table's id space, so hot rows are shared across samples as real bag
// ids are.
func sampleKeys(dst []uint64, sample, towers, embIDSpace int) {
	id := uint64(sample)
	for t := range towers {
		dst[t] = embeddings.NsKey(t, id)
	}
	for f := range dst[towers:] {
		row := embeddings.NsKey(f, id)
		if embIDSpace > 0 {
			row %= uint64(embIDSpace)
		}
		dst[towers+f] = embeddings.NsKey(f, row)
	}
}

// of is request i's keys.
func (kt *keyTable) of(i int32) []uint64 {
	lo := int(kt.slot[i]) * kt.width
	return kt.keys[lo : lo+kt.width : lo+kt.width]
}
