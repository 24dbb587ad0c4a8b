package distributed

import (
	"testing"

	"dmt/internal/models"
)

// TestPlanBucketsDegenerateBucketBytes is the table test behind the
// Config.BucketBytes clamping rules: whatever the cap — negative, zero,
// one byte, smaller than any parameter, or larger than the whole model —
// the plan must cover every over-arch parameter exactly once, in launch
// order (top-MLP group before bottom-MLP group, architecture order within
// each), never split a parameter, and respect the cap for every bucket
// holding more than one parameter.
func TestPlanBucketsDegenerateBucketBytes(t *testing.T) {
	cfg, _ := testSetup(1)
	m := models.NewDMTDLRM(cfg.Model)
	all := m.OverArchParams()
	nBottom := len(m.BottomParams())
	nTop := len(all) - nBottom
	paramBytes := func(pi int) int { return 4 * all[pi].Value.Len() }
	maxParam := 0
	for pi := range all {
		if b := paramBytes(pi); b > maxParam {
			maxParam = b
		}
	}

	cases := []struct {
		name        string
		bucketBytes int
		// wantCap is the effective cap the plan must respect (0 = default).
		wantCap int
		// wantBuckets, when >= 0, pins the exact bucket count.
		wantBuckets int
	}{
		{"negative clamps to default", -5, defaultBucketBytes, -1},
		{"zero clamps to default", 0, defaultBucketBytes, -1},
		{"one byte: every param its own bucket", 1, 1, len(all)},
		{"below smallest param still packs one per bucket", 4, 4, -1},
		{"huge cap: one bucket per backward stage", 1 << 30, 1 << 30, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := planBuckets(m, tc.bucketBytes)
			if tc.wantBuckets >= 0 && len(plan) != tc.wantBuckets {
				t.Fatalf("got %d buckets, want %d", len(plan), tc.wantBuckets)
			}
			// Coverage and launch order: top params (indices nBottom..) in
			// architecture order, then bottom params (0..nBottom).
			var got []int
			for i, b := range plan {
				if b.idx != i {
					t.Fatalf("bucket %d has idx %d", i, b.idx)
				}
				if len(b.params) == 0 {
					t.Fatalf("bucket %d is empty", i)
				}
				wantAfterBottom := len(got) >= nTop
				if b.afterBottom != wantAfterBottom {
					t.Fatalf("bucket %d afterBottom=%v, want %v (param run %v)",
						i, b.afterBottom, wantAfterBottom, b.params)
				}
				bytes := 0
				for _, pi := range b.params {
					bytes += paramBytes(pi)
				}
				if len(b.params) > 1 && bytes > tc.wantCap {
					t.Fatalf("bucket %d carries %d bytes over the %d cap with %d params",
						i, bytes, tc.wantCap, len(b.params))
				}
				got = append(got, b.params...)
			}
			if len(got) != len(all) {
				t.Fatalf("plan covers %d params, want %d", len(got), len(all))
			}
			for i, pi := range got {
				want := nBottom + i // top group first...
				if i >= nTop {
					want = i - nTop // ...then the bottom group
				}
				if pi != want {
					t.Fatalf("launch position %d holds param %d, want %d", i, pi, want)
				}
			}
		})
	}

	// An oversized parameter (cap below maxParam) must still get exactly
	// one bucket to itself rather than being split or dropped.
	plan := planBuckets(m, maxParam-1)
	for _, b := range plan {
		bytes := 0
		for _, pi := range b.params {
			bytes += paramBytes(pi)
		}
		if bytes >= maxParam && len(b.params) != 1 {
			t.Fatalf("oversized run packed %d params into one bucket (%d bytes, cap %d)",
				len(b.params), bytes, maxParam-1)
		}
	}
}
