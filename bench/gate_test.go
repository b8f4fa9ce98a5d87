package main

import (
	"strings"
	"testing"
)

// TestWrongPinnedDigestFails proves the digest gate can fail: a run at the
// pinned seed whose digest differs from the pinned one, or that has none
// pinned, is rejected; other seeds are not pinned.
func TestWrongPinnedDigestFails(t *testing.T) {
	pinned := map[string]string{"w": "aaaa"}
	if err := checkDigest(pinned, "w", pinnedSeed, "aaaa"); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if err := checkDigest(pinned, "w", pinnedSeed, "bbbb"); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Errorf("wrong digest accepted (err = %v)", err)
	}
	if err := checkDigest(pinned, "other", pinnedSeed, "aaaa"); err == nil {
		t.Error("a workload with no pinned digest passed at the pinned seed")
	}
	if err := checkDigest(pinned, "w", pinnedSeed+1, "bbbb"); err != nil {
		t.Errorf("unpinned seed rejected: %v", err)
	}
	for _, w := range workloads {
		if pinnedDigests[w.name] == "" {
			t.Errorf("digests.json pins no digest for %s", w.name)
		}
	}
}

// TestDigestIsOrderedContent checks the digest is a pure function of its
// rows, in order.
func TestDigestIsOrderedContent(t *testing.T) {
	rows := make([]row, 8)
	for i := range rows {
		rows[i] = row{key: strings.Repeat("k", i+1), rounds: i, messages: int64(3 * i), tc: int64(i % 7)}
	}
	d := digest(rows)
	if d != digest(append([]row(nil), rows...)) {
		t.Fatal("digest is not deterministic")
	}
	swapped := append([]row(nil), rows...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if digest(swapped) == d {
		t.Error("reordering rows did not change the digest")
	}
	changed := append([]row(nil), rows...)
	changed[3].messages++
	if digest(changed) == d {
		t.Error("a different message count did not change the digest")
	}
}
