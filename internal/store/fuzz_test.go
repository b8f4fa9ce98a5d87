package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynspread/internal/wire"
)

// FuzzStoreOpen opens a store whose only segment holds arbitrary bytes.
// Open must never panic, and it must fail exactly when a line other than
// the last is not a keyed record. When it succeeds, Len and every Get must
// equal a reference that decodes each line on its own and keeps the last
// keyed record per key, so a torn or garbled line can only lose records. A
// Put after Open must then survive Close and a reopen, which shows that
// nothing is appended after a torn tail.
func FuzzStoreOpen(f *testing.F) {
	line := func(key string, res wire.TrialResult) []byte {
		b, err := json.Marshal(record{Key: key, Result: res})
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	k1, r1 := result(1, 7)
	k2, r2 := result(2, 9)
	good := append(line(k1, r1), line(k2, r2)...)
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), line(k1, r1)[:40]...))
	f.Add(append(append(line(k1, r1), "garbage\n"...), line(k2, r2)...))
	noKey, err := json.Marshal(record{Result: r1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append(noKey, '\n'), line(k2, r2)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		want := map[string]wire.TrialResult{}
		interiorBad := false
		lines := bytes.SplitAfter(data, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		for i, l := range lines {
			var rec record
			if json.Unmarshal(bytes.TrimSuffix(l, []byte("\n")), &rec) != nil || rec.Key == "" {
				interiorBad = interiorBad || i < len(lines)-1
				continue
			}
			want[rec.Key] = rec.Result
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if (err != nil) != interiorBad {
			t.Fatalf("Open error %v, but a malformed interior line is %v", err, interiorBad)
		}
		if err != nil {
			return
		}
		check := func(s *Store, want map[string]wire.TrialResult) {
			t.Helper()
			if s.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(want))
			}
			for k, w := range want {
				if got, ok := s.Get(k); !ok || !reflect.DeepEqual(got, w) {
					t.Fatalf("Get(%q) = %+v, %v; want %+v", k, got, ok, w)
				}
			}
		}
		check(s, want)

		k3, r3 := result(3, 11)
		if _, ok := want[k3]; !ok {
			want[k3] = r3
		}
		if err := s.Put(k3, r3); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopen after Put: %v", err)
		}
		defer s.Close()
		check(s, want)
	})
}
