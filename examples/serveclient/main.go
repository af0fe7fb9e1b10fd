// Serveclient exercises the sg2042d HTTP API as a client: list the
// experiments, fetch one in the negotiated formats, run a small batch,
// and read the engine's cache counters back from /metrics.
//
// Point it at a running daemon:
//
//	go run ./cmd/sg2042d &
//	go run ./examples/serveclient -addr 127.0.0.1:8042
//
// With no -addr it starts an in-process server on a loopback port and
// talks to that, so the example is runnable standalone.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"repro"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "address of a running sg2042d (empty: serve in-process)")
	exp := flag.String("exp", "figure1", "experiment to fetch")
	flag.Parse()

	base := "http://" + *addr
	if *addr == "" {
		// No daemon given: mount the same handler sg2042d serves on an
		// in-process loopback listener.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, serve.New(serve.Options{Parallel: 4}).Handler())
		base = "http://" + ln.Addr().String()
		fmt.Printf("serveclient: no -addr, serving in-process on %s\n\n", base)
	}

	// 1. Discover the experiments.
	var list struct {
		Experiments []repro.ExperimentInfo `json:"experiments"`
	}
	getJSON(base+"/v1/experiments", &list)
	fmt.Printf("The server offers %d experiments:\n", len(list.Experiments))
	for _, info := range list.Experiments {
		fmt.Printf("  %-9s %s\n", info.Name, info.Desc)
	}

	// 2. One experiment as text — the same bytes sg2042sim -exp prints.
	text := getBody(base + "/v1/experiments/" + *exp)
	fmt.Printf("\nGET /v1/experiments/%s (first lines):\n", *exp)
	for i, line := range strings.SplitN(text, "\n", 4) {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Println("  " + line)
	}

	// 3. The same experiment as CSV via content negotiation.
	req, err := http.NewRequest(http.MethodGet, base+"/v1/experiments/"+*exp, nil)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Accept", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("\nSame resource with Accept: text/csv (%s): %d bytes, header %q\n",
		resp.Header.Get("Content-Type"), len(csv), firstLine(string(csv)))

	// 4. A batch request fanned out over the engine's worker pool.
	body, err := json.Marshal(map[string]any{"names": []string{"table1", "table4"}})
	if err != nil {
		log.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/experiments:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var batch struct {
		Results []struct {
			Name   string `json:"name"`
			Output string `json:"output"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nPOST /v1/experiments:batch returned %d results:\n", len(batch.Results))
	for _, res := range batch.Results {
		fmt.Printf("  %-9s %q\n", res.Name, firstLine(res.Output))
	}

	// 5. The warm cache at work, straight from /metrics.
	for _, line := range strings.Split(getBody(base+"/metrics"), "\n") {
		if strings.HasPrefix(line, "sg2042d_engine_cache_") {
			fmt.Println(line)
		}
	}
}

func getBody(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s: %s", url, resp.Status, b)
	}
	return string(b)
}

func getJSON(url string, v any) {
	if err := json.Unmarshal([]byte(getBody(url)), v); err != nil {
		log.Fatal(err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
