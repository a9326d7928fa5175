package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// digestsFile pins, per workload, the result digest of every operation at
// the default seed.
const digestsFile = "digests.json"

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker holds a run's output and counter checks: every operation's
// result bytes must be identical across passes, between untraced and
// traced passes, and (at the default seed) to the pinned digest; every
// pass's exact work counters must equal the first pass's, and every traced
// pass's exact layer counts the first traced pass's.
type checker struct {
	first  map[string]string // label → digest, from the first pass that ran it
	pinned map[string]string
	counts map[string]uint64
	layers map[string]uint64 // exact layer counts of the first traced pass
	bad    map[string]bool
	msgs   []string
}

func newChecker(o options) *checker {
	c := &checker{first: map[string]string{}, bad: map[string]bool{}}
	if o.seed == defaultSeed && !o.pin {
		all, err := readPinned(o.root)
		if err != nil {
			c.fail("", "reading pinned digests: %v", err)
		}
		c.pinned = all[o.workload]
	}
	return c
}

func (c *checker) fail(label, format string, args ...any) {
	if label != "" {
		c.bad[label] = true
	}
	c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.msgs) == 0 }

func (c *checker) pass(name string, p *passResult) {
	for _, op := range p.ops {
		if op.err != nil {
			c.fail(op.label, "%s: %s: %v", name, op.label, op.err)
			continue
		}
		if want, ok := c.first[op.label]; !ok {
			c.first[op.label] = op.digest
		} else if op.digest != want {
			c.fail(op.label, "%s: %s: result digest %s differs from the first pass's %s", name, op.label, op.digest, want)
		}
		if want, ok := c.pinned[op.label]; c.pinned != nil && (!ok || op.digest != want) {
			c.fail(op.label, "%s: %s: result digest %s, pinned %q", name, op.label, op.digest, want)
		}
	}
	c.same(name, &c.counts, p.counts)
	if p.layers != nil {
		c.same(name, &c.layers, layerCounts(p.layers))
	}
}

// same requires counts to equal *first, which the first call sets.
func (c *checker) same(name string, first *map[string]uint64, counts map[string]uint64) {
	if *first == nil {
		*first = counts
		return
	}
	for _, k := range unionKeys(*first, counts) {
		if (*first)[k] != counts[k] {
			c.fail("", "%s: counter %s = %d, first pass had %d: the passes did different work", name, k, counts[k], (*first)[k])
		}
	}
}

func unionKeys(a, b map[string]uint64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]uint64{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func readPinned(root string) (map[string]map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "perfbench", digestsFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsFile, err)
	}
	return all, nil
}

// pinDigests records this run's digests for its workload in digests.json.
func pinDigests(o options, digests map[string]string) error {
	all, err := readPinned(o.root)
	if err != nil {
		return err
	}
	if all == nil {
		all = map[string]map[string]string{}
	}
	all[o.workload] = digests
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.root, "perfbench", digestsFile), append(raw, '\n'), 0o644)
}

// sourceDigest hashes the program's source (go.mod and every .go file
// outside the benchmark and hidden directories), identifying the code
// measured whether or not the tree is a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
