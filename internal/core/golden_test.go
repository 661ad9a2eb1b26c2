package core

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestCitySmokeGoldenHashes pins city-scale behaviour: the four
// archetypes' journal hashes on the city-smoke tier, under both the
// legacy scheduler (shards=0) and the sharded reference leg (shards=1),
// must equal the committed testdata file. Corpus and unit tests run at
// a few zones, where gossip groups hold a handful of members and its
// piggyback queue never fills; this tier has 40 zones. The
// configuration is what `riotsim -tier city-smoke -matrix -hash` runs.
func TestCitySmokeGoldenHashes(t *testing.T) {
	f, err := os.Open("testdata/city_smoke_hashes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{} // "shards=N arch=A" → hash
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var shards, arch, hash string
		if _, err := fmt.Sscanf(line, "%s journal %s %s", &shards, &arch, &hash); err != nil {
			t.Fatalf("malformed line %q: %v", line, err)
		}
		want[shards+" "+arch] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		for _, a := range AllArchetypes() {
			key := fmt.Sprintf("shards=%d arch=%s", shards, a)
			hash, ok := want[key]
			if !ok {
				t.Errorf("%s: no golden hash", key)
				continue
			}
			cfg := CityScenarioSmoke()
			cfg.Seed = 1
			cfg.Preset = FaultsStandard
			cfg.Shards = shards
			sys := NewSystem(cfg, a)
			sys.Run()
			if got := sys.JournalHash(); got != hash {
				t.Errorf("%s: journal hash %s, golden %s", key, got, hash)
			}
			delete(want, key)
		}
	}
	for key := range want {
		t.Errorf("golden file has %q, which no leg checks", key)
	}
}
