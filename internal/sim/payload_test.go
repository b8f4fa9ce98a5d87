package sim

import (
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// piggyProto sends a single message carrying a completeness announcement, a
// token AND a request — the model allows it (constant tokens + O(log n)
// bits) and it must count as exactly ONE message with three payload tallies.
type piggyProto struct {
	env  NodeEnv
	nbrs []graph.NodeID
	sent bool
}

func (p *piggyProto) BeginRound(_ int, nbrs []graph.NodeID) { p.nbrs = nbrs }

func (p *piggyProto) Send(_ int) []Message {
	if p.env.ID != 0 || p.sent || len(p.nbrs) == 0 {
		return nil
	}
	p.sent = true
	m := Message{From: 0, To: p.nbrs[0]}
	m.SetCompleteness(CompletenessAnn{Source: 0, Count: p.env.K})
	m.SetToken(TokenPayload{ID: 0, Owner: 0, Index: 1, Count: p.env.K})
	m.SetRequest(RequestPayload{Owner: 0, Index: 2})
	return []Message{m}
}

func (p *piggyProto) Deliver(int, []Message) {}

func TestPiggybackedPayloadsCountOnce(t *testing.T) {
	assign, err := token.SingleSource(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Assign:    assign,
		Unicast:   func(env NodeEnv) Protocol { return &piggyProto{env: env} },
		Adversary: staticAdv{graph.Path(3)},
		MaxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Messages != 1 {
		t.Fatalf("Messages = %d, want 1 (piggybacked payloads share one message)", m.Messages)
	}
	if m.TokenPayloads != 1 || m.RequestPayloads != 1 || m.CompletenessPayloads != 1 {
		t.Fatalf("payload tallies = %d/%d/%d, want 1/1/1",
			m.TokenPayloads, m.RequestPayloads, m.CompletenessPayloads)
	}
	if m.Learnings != 1 {
		t.Fatalf("Learnings = %d, want 1", m.Learnings)
	}
}

func TestControlPayloadCounted(t *testing.T) {
	assign, err := token.SingleSource(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(env NodeEnv) Protocol {
		return badProto{msg: func() []Message {
			if env.ID != 0 {
				return nil
			}
			return []Message{ControlMsg(0, 1, ControlPayload{Kind: CtrlTreeInvite})}
		}}
	}
	res, err := Run(Config{
		Assign:    assign,
		Unicast:   factory,
		Adversary: staticAdv{graph.Path(3)},
		MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ControlPayloads != 2 || res.Metrics.Messages != 2 {
		t.Fatalf("control=%d messages=%d, want 2/2 (one per round)",
			res.Metrics.ControlPayloads, res.Metrics.Messages)
	}
}
