package consensus

import (
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Wire codecs for the protocol's messages, used when raft runs over a
// real network. Commands travel in the wire value union, so a proposed
// command must be one of its types.
func init() {
	wire.Register(wire.TagRaftRequestVote,
		func(w *wire.Writer, m requestVoteMsg) {
			writeCandidacy(w, m.Term, m.Candidate, m.LastLogIndex, m.LastLogTerm)
		},
		func(r *wire.Reader) requestVoteMsg {
			return requestVoteMsg{Term: r.Uvarint(), Candidate: simnet.NodeID(r.String()), LastLogIndex: r.Uvarint(), LastLogTerm: r.Uvarint()}
		})
	wire.Register(wire.TagRaftRequestVoteResp,
		func(w *wire.Writer, m requestVoteResp) { w.Uvarint(m.Term); w.Bool(m.Granted) },
		func(r *wire.Reader) requestVoteResp { return requestVoteResp{Term: r.Uvarint(), Granted: r.Bool()} })
	wire.Register(wire.TagRaftPreVote,
		func(w *wire.Writer, m preVoteMsg) {
			writeCandidacy(w, m.Term, m.Candidate, m.LastLogIndex, m.LastLogTerm)
		},
		func(r *wire.Reader) preVoteMsg {
			return preVoteMsg{Term: r.Uvarint(), Candidate: simnet.NodeID(r.String()), LastLogIndex: r.Uvarint(), LastLogTerm: r.Uvarint()}
		})
	wire.Register(wire.TagRaftPreVoteResp,
		func(w *wire.Writer, m preVoteResp) { w.Uvarint(m.Term); w.Bool(m.Granted) },
		func(r *wire.Reader) preVoteResp { return preVoteResp{Term: r.Uvarint(), Granted: r.Bool()} })
	wire.Register(wire.TagRaftAppendEntries,
		func(w *wire.Writer, m appendEntriesMsg) {
			w.Uvarint(m.Term)
			w.String(string(m.Leader))
			w.Uvarint(m.PrevLogIndex)
			w.Uvarint(m.PrevLogTerm)
			wire.WriteSlice(w, m.Entries, writeEntry)
			w.Uvarint(m.LeaderCommit)
		},
		func(r *wire.Reader) appendEntriesMsg {
			return appendEntriesMsg{
				Term:         r.Uvarint(),
				Leader:       simnet.NodeID(r.String()),
				PrevLogIndex: r.Uvarint(),
				PrevLogTerm:  r.Uvarint(),
				Entries:      wire.ReadSlice(r, readEntry),
				LeaderCommit: r.Uvarint(),
			}
		})
	wire.Register(wire.TagRaftAppendEntriesResp,
		func(w *wire.Writer, m appendEntriesResp) {
			w.Uvarint(m.Term)
			w.Bool(m.Success)
			w.Uvarint(m.MatchIndex)
		},
		func(r *wire.Reader) appendEntriesResp {
			return appendEntriesResp{Term: r.Uvarint(), Success: r.Bool(), MatchIndex: r.Uvarint()}
		})
}

// writeCandidacy writes the fields requestVoteMsg and preVoteMsg share.
func writeCandidacy(w *wire.Writer, term uint64, candidate simnet.NodeID, lastIndex, lastTerm uint64) {
	w.Uvarint(term)
	w.String(string(candidate))
	w.Uvarint(lastIndex)
	w.Uvarint(lastTerm)
}

func writeEntry(w *wire.Writer, e entry) {
	w.Uvarint(e.Term)
	w.Value(e.Cmd)
}

func readEntry(r *wire.Reader) entry { return entry{Term: r.Uvarint(), Cmd: r.Value()} }
