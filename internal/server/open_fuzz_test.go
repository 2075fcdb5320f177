package server

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// FuzzOpenOptions drives the session open-options validation — the
// other untrusted-input parser — with arbitrary JSON: decoding plus
// apply() must never panic, a retired key (the engine chooses the
// oracle, the SWAP algorithm and the seeding itself, and the artifact
// cache merged into the map cache) must never decode,
// and whenever apply accepts, the resulting engine options must be
// within validated bounds.
func FuzzOpenOptions(f *testing.F) {
	f.Add(`{"oracle":"sparse","seeding":"lab"}`)
	f.Add(`{"oracle":"lazy","mapCacheSize":4,"artifactCacheSize":2}`)
	f.Add(`{"mapCacheSize":-1}`)
	f.Add(`{"mapCacheSize":99999}`)
	f.Add(`{"algorithm":"classic"}`)
	f.Add(`{"seeding":"bogus"}`)
	f.Add(`{"mapCacheSize":null,"artifactCacheSize":0}`)
	f.Add(`{}`)
	f.Add(`{"oracle":"matrix"}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var c clusterOptionsJSON
		if err := json.Unmarshal([]byte(raw), &c); err != nil {
			return
		}
		var keys map[string]json.RawMessage
		if json.Unmarshal([]byte(raw), &keys) == nil {
			for _, retired := range []string{"oracle", "algorithm", "seeding", "artifactCacheSize"} {
				if _, ok := keys[retired]; ok {
					t.Fatalf("the retired key %q decoded (input %q)", retired, raw)
				}
			}
		}
		opts := core.DefaultOptions()
		base := opts
		if err := c.apply(&opts); err != nil {
			return
		}
		if v := opts.MapCacheSize; v < -1 || v > maxCacheEntries {
			t.Fatalf("apply accepted mapCacheSize=%d outside [-1,%d] (input %q)", v, maxCacheEntries, raw)
		}
		// A zero override must keep the server default, not zero the cache.
		if c.MapCacheSize != nil && *c.MapCacheSize == 0 && opts.MapCacheSize != base.MapCacheSize {
			t.Fatalf("mapCacheSize=0 overrode the default: %d", opts.MapCacheSize)
		}
	})
}
