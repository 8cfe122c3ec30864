package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"snd/internal/serve"
)

// client is one HTTP connection to the server (the transport allows a
// single connection, so requests on it never overlap). Requests shed
// by admission (429) or refused while not ready (503) are retried a
// bounded number of times; the retries are counted.
type client struct {
	base    string
	hc      *http.Client
	tr      *tracer
	parent  int // span the requests' spans nest under
	retries int
}

const (
	retryAttempts = 4
	retryBackoff  = 20 * time.Millisecond
)

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends body as JSON and decodes a 2xx answer into out. The span it
// records is named http.<route> and carries request id req.
func (c *client) do(method, path, route string, req int64, body, out any) error {
	sp := c.tr.start("http."+route, c.parent, req)
	defer c.tr.end(sp)
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	for attempt := 1; ; attempt++ {
		status, err := c.once(method, path, payload, out)
		if err == nil || attempt == retryAttempts ||
			(status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable) {
			return err
		}
		c.retries++
		time.Sleep(time.Duration(attempt) * retryBackoff)
	}
}

func (c *client) once(method, path string, payload []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e serve.ErrorResponse
		_ = decodeBody(resp.Body, &e)
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s (%s)", method, path, resp.StatusCode, e.Error, e.Sentinel)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, decodeBody(resp.Body, out)
}

func decodeBody(r io.Reader, out any) error { return json.NewDecoder(r).Decode(out) }

// promText is one parsed /metrics scrape: sample line -> value.
type promText map[string]float64

func (c *client) scrape() (promText, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads the Prometheus text format's sample lines, keyed by
// the series name with its labels as written.
func parseProm(r io.Reader) (promText, error) {
	out := make(promText)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum and count read a route's request-duration histogram.
func (m promText) sum(route string) float64 {
	return m[fmt.Sprintf("snd_http_request_duration_seconds_sum{route=%q}", route)]
}

func (m promText) count(route string) float64 {
	return m[fmt.Sprintf("snd_http_request_duration_seconds_count{route=%q}", route)]
}

// total sums every series of a metric family, across labels.
func (m promText) total(name string) float64 {
	sum := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}
