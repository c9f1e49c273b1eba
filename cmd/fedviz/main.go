// Command fedviz renders PNGs of the synthetic datasets and backdoor
// triggers: a class-sample grid, clean-vs-triggered comparisons, and (via
// -weights) a weight histogram of a trained model's last conv layer.
//
// Example:
//
//	fedviz -dataset mnist -out mnist.png
//	fedviz -dataset cifar -triggers -out cifar_triggers.png
package main

import (
	"flag"
	"fmt"
	"image"
	"os"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/viz"
)

func main() {
	ds := flag.String("dataset", "mnist", "dataset: mnist, fashion or cifar")
	out := flag.String("out", "samples.png", "output PNG path")
	triggers := flag.Bool("triggers", false, "render clean-vs-triggered pairs instead of a class grid")
	weights := flag.Bool("weights", false, "render a weight histogram of a freshly trained model's last conv layer")
	pixels := flag.Int("pixels", 3, "trigger pattern size for -triggers (1,3,5,7,9)")
	seed := flag.Int64("seed", 1, "generation seed")
	logf := obs.AddLogFlags()
	flag.Parse()
	if _, err := logf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	gen, ok := dataset.GenByName(*ds)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *ds)
		os.Exit(2)
	}
	train, _ := gen(dataset.GenConfig{TrainPerClass: 10, TestPerClass: 1, Seed: *seed})

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var img image.Image
	switch {
	case *weights:
		s := eval.MNISTScenario(9, 2)
		if *ds != "mnist" {
			fmt.Fprintln(os.Stderr, "-weights currently renders the mnist scenario")
		}
		t := eval.Run(s)
		li := t.Server.Model.LastConvIndex()
		conv := t.Server.Model.Layer(li).(*nn.Conv2D)
		img = viz.Histogram(conv.W.Value.Data, 60, 600, 200)
	case *triggers:
		trig := dataset.PixelPattern(*pixels, train.Shape)
		if *ds == "cifar" {
			trig = dataset.DBAGlobalPattern(train.Shape)
		}
		// One sample per class, each with its triggered twin.
		byLabel := train.ByLabel()
		var samples []dataset.Sample
		for _, idxs := range byLabel {
			if len(idxs) > 0 {
				samples = append(samples, train.Samples[idxs[0]])
			}
		}
		img = viz.TriggerComparison(samples, train.Shape, trig)
	default:
		// A grid with one row per class.
		byLabel := train.ByLabel()
		var samples []dataset.Sample
		const perRow = 8
		for _, idxs := range byLabel {
			for i := 0; i < perRow && i < len(idxs); i++ {
				samples = append(samples, train.Samples[idxs[i]])
			}
		}
		img = viz.Grid(samples, train.Shape, perRow)
	}
	err = viz.WritePNG(f, img)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
