package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// checksumsJSON maps workload -> simulation seed -> the SHA-256 of one
// iteration's canonical fingerprint, as printed by --record.
//
//go:embed checksums.json
var checksumsJSON []byte

func loadChecksums() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(checksumsJSON, &m); err != nil {
		return nil, fmt.Errorf("checksums.json: %w", err)
	}
	return m, nil
}

func checksum(fp []byte) string {
	sum := sha256.Sum256(fp)
	return hex.EncodeToString(sum[:])
}

// recordChecksums runs one iteration of every workload at every simulation
// seed and prints the checksums file. Regenerate checksums.json with it only
// when a change is meant to alter simulated output.
func recordChecksums() int {
	out := map[string]map[string]string{}
	for _, w := range workloads() {
		out[w.name] = map[string]string{}
		for s := uint64(1); s <= simSeeds; s++ {
			e := &env{simSeed: s}
			if err := w.prepare(e); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: record %s seed %d: %v\n", w.name, s, err)
				return 1
			}
			it := once(w, e)
			if it.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: record %s seed %d: %v\n", w.name, s, it.err)
				return 1
			}
			out[w.name][fmt.Sprint(s)] = checksum(it.fp)
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", w.name, s)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
