package consensus

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestWireRoundTrip(t *testing.T) {
	item := dataflow.Item{Key: "zone/3/temp", Value: 21.5, Label: dataflow.Label{Topic: "temp", Sensitivity: dataflow.Public}}
	wiretest.Table(t, []wire.Tag{
		wire.TagRaftRequestVote, wire.TagRaftRequestVoteResp, wire.TagRaftPreVote,
		wire.TagRaftPreVoteResp, wire.TagRaftAppendEntries, wire.TagRaftAppendEntriesResp,
	},
		requestVoteMsg{Term: 9, Candidate: "z1-gw", LastLogIndex: 120, LastLogTerm: 8},
		requestVoteResp{Term: 9, Granted: true},
		preVoteMsg{Term: 10, Candidate: "z2-gw", LastLogIndex: 1, LastLogTerm: 1},
		preVoteResp{Term: 10},
		appendEntriesMsg{
			Term: 3, Leader: "z1-gw", PrevLogIndex: 41, PrevLogTerm: 2, LeaderCommit: 40,
			Entries: []entry{{Term: 3}, {Term: 3, Cmd: 1.5}, {Term: 3, Cmd: "noop"}, {Term: 3, Cmd: true}, {Term: 3, Cmd: item}},
		},
		appendEntriesMsg{Term: 3, Leader: "z1-gw", LeaderCommit: 40},
		appendEntriesResp{Term: 3, Success: true, MatchIndex: 46},
	)
}

// BenchmarkWireCodec measures an append carrying two entries.
func BenchmarkWireCodec(b *testing.B) {
	wiretest.Bench(b, appendEntriesMsg{
		Term: 7, Leader: "z1-gw", PrevLogIndex: 120, PrevLogTerm: 7, LeaderCommit: 119,
		Entries: []entry{{Term: 7, Cmd: "rebalance"}, {Term: 7, Cmd: 3.5}},
	})
}
