"""Multi-level webpage briefing — the paper's hierarchy extension (§III-C/§V).

The paper evaluates two levels (topic + key attributes) because its labelled
data has two levels, and sketches the extension: "use multiple extractors E
to tackle key attributes at different levels, combine the signals from
different levels, and share the combined signals with the generator G."

:class:`HierarchicalBriefer` realises a three-level hierarchy on our data by
combining a trained joint model with the attribute-name classifier
(:mod:`repro.models.attribute_names`):

* level 0 — the generated broad topic phrase;
* level 1 — the *attribute names* present on the page (the coarse "what kinds
  of facts are here" view, e.g. ``price``, ``brand``);
* level 2 — the extracted values, grouped under their names.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..data.corpus import AttributeSpan, Document
from ..models.attribute_names import AttributeNameClassifier, collect_type_inventory
from ..models.extractor import decode_spans
from ..models.joint_wb import JointWBModel
from .briefing import Brief
from .training import TrainConfig, Trainer

__all__ = ["HierarchicalBrief", "HierarchicalBriefer", "train_name_classifier"]


class HierarchicalBrief(Brief):
    """A brief whose attributes are grouped by predicted attribute name."""

    def __init__(self, topic: List[str], named_attributes: Sequence[Tuple[str, str]]) -> None:
        grouped: Dict[str, List[str]] = {}
        for name, value in named_attributes:
            grouped.setdefault(name, []).append(value)
        super().__init__(topic=topic, attributes=[v for _, v in named_attributes])
        self.named_attributes = list(named_attributes)
        self.groups = grouped

    def render(self) -> str:  # noqa: D102 — extends Brief.render with names
        lines = [f"Topic: {self.topic_text}"]
        for name, values in self.groups.items():
            lines.append(f"  [{name}]")
            for value in values:
                lines.append(f"    - {value}")
        return "\n".join(lines)


def train_name_classifier(
    model: JointWBModel,
    documents: Sequence[Document],
    rng: np.random.Generator,
    epochs: int = 6,
    learning_rate: float = 5e-3,
) -> AttributeNameClassifier:
    """Train an attribute-name classifier on top of a (frozen) joint model.

    Span representations come from the joint model's extractor hidden states;
    only the classifier's parameters are updated.
    """
    inventory = collect_type_inventory(documents)
    classifier = AttributeNameClassifier(2 * model.hidden_dim, inventory, rng)

    class _Head:
        """Adapter giving the Trainer a ``loss(document)`` view."""

        def __init__(self) -> None:
            self.inner = classifier

        def loss(self, document: Document):
            from .. import nn

            with nn.no_grad():
                enc = model.encoder.encode(document)
                hidden = model.extractor.hidden(enc.token_states)
            return classifier.loss(nn.Tensor(hidden.data), document)

        def parameters(self):
            return classifier.parameters()

        def train(self, mode: bool = True):
            classifier.train(mode)
            return self

        def eval(self):
            classifier.eval()
            return self

    Trainer(_Head(), TrainConfig(epochs=epochs, learning_rate=learning_rate)).train(documents)
    return classifier


class HierarchicalBriefer:
    """Three-level briefing: topic → attribute names → attribute values."""

    def __init__(self, model: JointWBModel, classifier: AttributeNameClassifier, beam_size: int = 4) -> None:
        self.model = model
        self.classifier = classifier
        self.beam_size = beam_size

    def _predicted_spans(self, document: Document) -> List[AttributeSpan]:
        from .. import nn

        with nn.no_grad():
            enc, probs, c_e, c_g_dual = self.model._inference_states(document)
            topic_hidden = self.model._greedy_topic_hidden(c_g_dual)
            c_e_dual = self.model._update_extractor_hidden(
                c_e, topic_hidden, probs, enc.token_sentence_index
            )
            tags = self.model.extractor.predict_tags(self.model.extractor.logits(c_e_dual))
        offsets = document.sentence_offsets()
        spans: List[AttributeSpan] = []
        for start, end in decode_spans(tags):
            # Map flat offsets back to (sentence, start, end); spans that cross
            # sentence boundaries are clipped to the first sentence.
            sentence = max(i for i, off in enumerate(offsets) if off <= start)
            base = offsets[sentence]
            limit = len(document.sentences[sentence])
            spans.append(
                AttributeSpan(
                    sentence_index=sentence,
                    start=start - base,
                    end=min(end - base, limit),
                    attribute_type="?",
                )
            )
        return [s for s in spans if s.start < s.end]

    def brief(self, document: Document) -> HierarchicalBrief:
        """Produce the three-level brief for a document."""
        from .. import nn

        topic = self.model.predict_topic(document, beam_size=self.beam_size)
        spans = self._predicted_spans(document)
        with nn.no_grad():
            enc = self.model.encoder.encode(document)
            hidden = self.model.extractor.hidden(enc.token_states)
        named = self.classifier.predict_named(hidden, document, spans)
        return HierarchicalBrief(topic=topic, named_attributes=named)
