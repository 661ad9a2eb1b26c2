// Package wiretest checks the wire codecs a package registers, from
// that package's own tests (where its unexported message types are in
// scope).
package wiretest

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/wire"
)

// sender is the frame header every check uses; it is short enough that
// its length prefix is one byte, so the tag sits at len(sender)+1.
const sender = "n1"

// RoundTrip frames msg, decodes the frame and fails t unless the
// decoded message deep-equals msg and re-encodes to the same bytes. It
// also fails t if encoding into the writer's reused buffer allocates.
// It logs the encoded length next to the modeled Size(), when msg has
// one, and returns the message's tag.
func RoundTrip(t testing.TB, msg any) wire.Tag {
	t.Helper()
	var w wire.Writer
	b, err := w.Frame(sender, msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	b = append([]byte(nil), b...)
	from, got, err := new(wire.Reader).Frame(b)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if from != sender {
		t.Errorf("decode %T: sender %q, want %q", msg, from, sender)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Errorf("round trip of %T:\n got %#v\nwant %#v", msg, got, msg)
	}
	again, err := w.Frame(sender, got)
	if err != nil || string(again) != string(b) {
		t.Errorf("re-encoding decoded %T differs (err %v)", msg, err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = w.Frame(sender, msg) }); allocs != 0 {
		t.Errorf("encoding %T into a reused buffer allocates %.1f times", msg, allocs)
	}
	modeled := "-"
	if s, ok := msg.(interface{ Size() int }); ok {
		modeled = strconv.Itoa(s.Size())
	}
	t.Logf("%-32T encoded %4d B  modeled Size() %4s B", msg, len(b), modeled)
	return wire.Tag(b[len(sender)+1])
}

// Table round-trips every message and fails t unless together they
// cover exactly the tags in want.
func Table(t *testing.T, want []wire.Tag, msgs ...any) {
	t.Helper()
	seen := make(map[wire.Tag]bool)
	for _, m := range msgs {
		seen[RoundTrip(t, m)] = true
	}
	for _, tag := range want {
		if !seen[tag] {
			t.Errorf("no representative message for tag %d", tag)
		}
		delete(seen, tag)
	}
	for tag := range seen {
		t.Errorf("tag %d is not one of this package's tags", tag)
	}
}

// Bench reports the cost of encoding msg into a reused buffer and of
// decoding its frame, as the sub-benchmarks encode and decode.
func Bench(b *testing.B, msg any) {
	var w wire.Writer
	frame, err := w.Frame(sender, msg)
	if err != nil {
		b.Fatal(err)
	}
	frame = append([]byte(nil), frame...)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := w.Frame(sender, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var r wire.Reader
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Frame(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
