package pubsub

import (
	"strings"
	"testing"
)

// FuzzTopicMatches checks structural invariants of the matcher: exact
// patterns match only themselves, "#" matches everything, and matching
// never panics on arbitrary inputs. The exact-pattern invariant is what
// lets the broker find wildcard-free patterns by map lookup.
func FuzzTopicMatches(f *testing.F) {
	f.Add("zone/+/temp", "zone/3/temp")
	f.Add("a/#", "a/b/c")
	f.Add("", "")
	f.Add("+/+", "x/y")
	f.Fuzz(func(t *testing.T, pattern, topic string) {
		got := TopicMatches(pattern, topic)
		// "#" alone matches any topic.
		if pattern == "#" && !got {
			t.Fatalf("# did not match %q", topic)
		}
		// A pattern without a "+" or "#" level matches exactly itself.
		if !isWildcard(pattern) {
			if want := pattern == topic; got != want {
				t.Fatalf("exact pattern %q vs %q: got %v, want %v", pattern, topic, got, want)
			}
		}
		// A topic always matches itself when it has no wildcard chars.
		if !strings.ContainsAny(topic, "+#") && !TopicMatches(topic, topic) {
			t.Fatalf("topic %q does not match itself", topic)
		}
	})
}
