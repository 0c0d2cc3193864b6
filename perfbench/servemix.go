package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"dhc"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/serve"
	"dhc/internal/sweep"
)

// recipe is one generated instance a serve-mix client asks for.
type recipe struct {
	n         int
	algo      string
	graphSeed uint64
}

// serveRecipes are the (n, algorithm) shapes every client cycles through.
var serveRecipes = []struct {
	n    int
	algo string
}{{1024, "dra"}, {1024, "dhc2"}, {4096, "dra"}, {4096, "dhc2"}}

const (
	serveK = 8 // partition count
	// serveRepeats is how often a client sends each distinct request: one
	// miss, then serveRepeats-1 hits, for a fixed 3:1 hit:miss mix.
	serveRepeats = 4
)

// serveOp is what the traced segment keeps of one request.
type serveOp struct {
	hit           bool
	latMs         float64
	solveWallMs   float64 // X-Solve-Wall-MS, misses only
	pass          bool    // within the client's first pass
	steps, p1, p2 int64
}

// serveClient owns its distinct requests and every repeat of them, so two
// clients never race for a cold key and the hit/miss split is exact.
type serveClient struct {
	id      int
	seed    uint64
	http    *http.Client
	recipes []recipe
	graphs  []*dhc.Graph // local copies of the recipes, for verification

	missBody []byte   // body of the current request's miss
	bodies   [][]byte // first-pass miss bodies of the plain segment, for the digest
	log      []serveOp
}

type serveBench struct {
	url    string
	srv    *http.Server
	served chan error
	cls    []*serveClient
}

// setupServe builds the local instances, starts the server on a loopback
// listener and runs one warm-up pass per client.
func setupServe(ctx context.Context, seed uint64, clients, concurrency int, tr *tracer, gs *graphStats) (*serveBench, error) {
	root := tr.begin(-1, "setup", -1)
	defer tr.end(root)
	b := &serveBench{}
	for c := 0; c < clients; c++ {
		cl := &serveClient{id: c, seed: seed}
		for j, r := range serveRecipes {
			rc := recipe{n: r.n, algo: r.algo, graphSeed: mix(seed, 3, uint64(c*len(serveRecipes)+j))}
			sp := tr.begin(-1, "build", root)
			t0 := time.Now()
			g, err := sweep.BuildInstance(sweep.FamilyGNP, rc.n, thresholdC, 1, rc.graphSeed)
			if err != nil {
				return nil, err
			}
			gs.add(time.Since(t0), g)
			tr.end(sp)
			cl.recipes = append(cl.recipes, rc)
			cl.graphs = append(cl.graphs, g)
		}
		// One connection per client: client connections stay within the
		// CPU cap.
		cl.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		b.cls = append(b.cls, cl)
	}

	sp := tr.begin(-1, "construct", root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: serve.New(serve.Config{Concurrency: concurrency, Workers: 1}).Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	tr.end(sp)

	sp = tr.begin(-1, "warmup", root)
	defer tr.end(sp)
	warm := &segment{name: "warmup"}
	errs := make(chan error, clients)
	for _, cl := range b.cls {
		go func(cl *serveClient) {
			for i := 0; i < len(cl.recipes)*serveRepeats; i++ {
				if _, err := b.op(ctx, warm, cl.id, i); err != nil {
					errs <- fmt.Errorf("warm-up: %w", err)
					return
				}
			}
			errs <- nil
		}(cl)
	}
	for range b.cls {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serveBench) clients() int { return len(b.cls) }
func (b *serveBench) passOps() int { return len(serveRecipes) * serveRepeats }

func (b *serveBench) close() {
	for _, cl := range b.cls {
		cl.http.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx)
	<-b.served
}

// getStats reads GET /stats.
func (b *serveBench) getStats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := b.cls[0].http.Get(b.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// op sends request i of client c: request i/serveRepeats of the segment,
// which is a miss the first time and a hit on every repeat.
func (b *serveBench) op(ctx context.Context, seg *segment, c, i int) (time.Duration, error) {
	cl := b.cls[c]
	group, rep := i/serveRepeats, i%serveRepeats
	j := group % len(cl.recipes)
	rc := cl.recipes[j]
	req := serve.SolveRequest{
		Family: "gnp", N: rc.n, Param: thresholdC, Delta: 1, GraphSeed: rc.graphSeed,
		Algo: rc.algo, Engine: "step", NumColors: serveK, IncludeCycle: true,
		Seed: mix(cl.seed, segmentDomain(seg.name), uint64(c)<<32|uint64(group)),
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	op := seg.nextOp()
	root := seg.tr.begin(op, "op", -1)
	defer seg.tr.end(root)

	sp := seg.tr.begin(op, "request", root)
	t0 := time.Now()
	status, xcache, wall, out, err := cl.post(ctx, b.url+"/solve", body)
	lat := time.Since(t0)
	end := time.Now()
	if err == nil && xcache == "miss" {
		start := end.Add(-time.Duration(wall * 1e6))
		if start.Before(t0) {
			start = t0
		}
		seg.tr.add(op, "server_solve", sp, start, end)
	}
	seg.tr.end(sp)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("client %d request %d: HTTP %d: %s", c, i, status, bytes.TrimSpace(out))
	}
	first := group < len(cl.recipes)
	sop := serveOp{latMs: ms(lat), pass: first}
	if rep == 0 {
		if xcache != "miss" {
			return lat, fmt.Errorf("client %d request %d: X-Cache %q, want miss", c, i, xcache)
		}
		sp := seg.tr.begin(op, "verify", root)
		resp, err := verifyServed(out, rc, cl.graphs[j])
		seg.tr.end(sp)
		if err != nil {
			return lat, fmt.Errorf("client %d request %d: %w", c, i, err)
		}
		cl.missBody = out
		if first && seg.name == "plain" {
			cl.bodies = append(cl.bodies, out)
		}
		sop.solveWallMs, sop.steps, sop.p1, sop.p2 = wall, resp.Steps, resp.Phase1Rounds, resp.Phase2Rounds
	} else {
		sop.hit = true
		if xcache != "hit" {
			return lat, fmt.Errorf("client %d request %d: X-Cache %q, want hit", c, i, xcache)
		}
		if !bytes.Equal(out, cl.missBody) {
			return lat, fmt.Errorf("client %d request %d: hit body differs from its miss body", c, i)
		}
	}
	if seg.tr != nil {
		cl.log = append(cl.log, sop)
	}
	return lat, nil
}

// segmentDomain keeps the requests of different segments distinct, so no
// segment finds another's responses in the replay cache.
func segmentDomain(name string) uint64 {
	switch name {
	case "warmup":
		return 10
	case "plain":
		return 11
	}
	return 12
}

// post sends one request and reads the whole response.
func (cl *serveClient) post(ctx context.Context, url string, body []byte) (status int, xcache string, wallMs float64, out []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, "", 0, nil, err
	}
	defer resp.Body.Close()
	if out, err = io.ReadAll(resp.Body); err != nil {
		return 0, "", 0, nil, err
	}
	xcache = resp.Header.Get("X-Cache")
	if w := resp.Header.Get("X-Solve-Wall-MS"); w != "" {
		if wallMs, err = strconv.ParseFloat(w, 64); err != nil {
			return 0, "", 0, nil, fmt.Errorf("X-Solve-Wall-MS %q: %w", w, err)
		}
	}
	return resp.StatusCode, xcache, wallMs, out, nil
}

// verifyServed checks a served body against the locally built instance.
func verifyServed(body []byte, rc recipe, g *dhc.Graph) (*serve.SolveResponse, error) {
	var resp serve.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode body: %w", err)
	}
	if resp.Status != "ok" {
		return nil, fmt.Errorf("status %q: %s", resp.Status, resp.Error)
	}
	if resp.N != g.N() || resp.M != int64(g.M()) {
		return nil, fmt.Errorf("served instance n=%d m=%d, local n=%d m=%d", resp.N, resp.M, g.N(), g.M())
	}
	if len(resp.Cycle) == 0 {
		return nil, errors.New("response carries no cycle")
	}
	if err := dhc.Verify(g, cycle.FromOrder(append([]graph.NodeID(nil), resp.Cycle...))); err != nil {
		return nil, fmt.Errorf("served %s cycle on n=%d: %w", rc.algo, rc.n, err)
	}
	return &resp, nil
}

// digest hashes every client's first-pass miss bodies of the plain segment.
func (b *serveBench) digest() (string, error) {
	var all [][]byte
	for _, cl := range b.cls {
		if len(cl.bodies) != len(cl.recipes) {
			return "", fmt.Errorf("client %d finished %d of %d first-pass requests", cl.id, len(cl.bodies), len(cl.recipes))
		}
		all = append(all, cl.bodies...)
	}
	return digestOf(all), nil
}
