"""Test helper: ship a compiled layer plan as a one-node model-plan artifact."""

from repro import engine


def save_layer_artifact(layer_plan, path) -> None:
    """Save ``layer_plan`` as a one-node :class:`~repro.engine.ModelPlan`."""
    builder = engine.GraphBuilder()
    output_id = builder.add_layer_plan(layer_plan, [builder.input_id])
    engine.save_model_plan(
        engine.ModelPlan(nodes=builder.nodes, layer_plans=builder.layer_plans,
                         output_id=output_id),
        path)
