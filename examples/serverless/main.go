// Serverless: run the paper's four SeBS benchmark applications (§6.6) twice
// over — first for real (the actual Go implementations: image resize,
// DEFLATE compression, graph BFS, model inference), then on the simulated
// testbed comparing vanilla SR-IOV against FastIOV at concurrency 50.
//
//	go run ./examples/serverless
package main

import (
	"fmt"
	"log"
	"time"

	"fastiov"
	"fastiov/internal/cluster"
	"fastiov/internal/serverless"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
)

func main() {
	runReal()
	fmt.Println()
	runSimulated()
}

// runReal executes the actual workload implementations.
func runReal() {
	fmt.Println("real workload implementations:")

	start := time.Now()
	img := serverless.GenerateTestImage(1920, 1080)
	thumb, err := serverless.ResizeThumbnail(img, 100, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  image:       1920x1080 -> %dx%d thumbnail in %v\n",
		thumb.Bounds().Dx(), thumb.Bounds().Dy(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	data := serverless.GenerateCompressibleData(9_700_000)
	zipped, err := serverless.Compress(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  compression: 9.7MB -> %.1fMB in %v\n",
		float64(len(zipped))/1e6, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	g := serverless.GenerateGraph(100000, 4, 7)
	_, visited, err := serverless.BFS(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  scientific:  BFS visited %d/100000 nodes in %v\n",
		visited, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	model := serverless.NewModel(3*224*224, 64, 1000, 42)
	input := make([]float32, 3*224*224)
	for i := range input {
		input[i] = float32(i%255) / 255
	}
	class, prob, err := model.Classify(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  inference:   class %d (p=%.3f) in %v\n",
		class, prob, time.Since(start).Round(time.Millisecond))
}

// runSimulated reproduces the Fig. 15 comparison at reduced concurrency.
func runSimulated() {
	const n = 50
	fmt.Printf("simulated task completion (concurrency=%d):\n", n)
	fmt.Printf("  %-12s %-12s %-12s %s\n", "app", "vanilla", "fastiov", "reduction")
	for _, app := range fastiov.Apps() {
		van := completionTimes(fastiov.BaselineVanilla, app, n)
		fio := completionTimes(fastiov.BaselineFastIOV, app, n)
		fmt.Printf("  %-12s %-12v %-12v %.1f%%\n", app.Name,
			van.Mean().Round(10*time.Millisecond), fio.Mean().Round(10*time.Millisecond),
			100*stats.ReductionRatio(van.Mean(), fio.Mean()))
	}
}

func completionTimes(baseline string, app fastiov.App, n int) *stats.Sample {
	opts, err := fastiov.OptionsFor(baseline)
	if err != nil {
		log.Fatal(err)
	}
	host, err := fastiov.NewHost(fastiov.DefaultHostSpec(), opts)
	if err != nil {
		log.Fatal(err)
	}
	times := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		at := host.Env.Rand.Duration(cluster.StartJitter)
		host.K.GoAt(at, fmt.Sprintf("task-%d", i), func(p *sim.Proc) {
			issued := p.Now()
			sb, err := host.Eng.RunPodSandbox(p, i)
			if err != nil {
				log.Fatal(err)
			}
			if err := serverless.Execute(p, host.Eng, sb, app); err != nil {
				log.Fatal(err)
			}
			times[i] = p.Now() - issued
		})
	}
	host.K.Run()
	return stats.FromDurations(times)
}
